"""Layer growth, Lee ball sizes and the code-theoretic verdict."""

import json
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilee import fields, sumsets
from quasilee.cli import main
from quasilee.curves import admissibility, from_representatives, generator_set
from quasilee.fields import SizeCapError, is_prime, make_field, pair_neg
from quasilee.spectra import ALMOST_RAMANUJAN, RAMANUJAN, full_spectrum
from quasilee.sumsets import (NEITHER, QUASI_PERFECT_2, classify,
                              cumulative_layers, lee_ball_size, sumset)


def layers(p, k, family):
    return cumulative_layers(generator_set(make_field(p, k), family))


def layer_masks(lay):
    """The class route's layers as masks over the q^2 indices."""
    gen = lay.generator
    z = np.arange(gen.ambient_size)
    keys = gen.classes.of(z % gen.q, z // gen.q)
    return [c[keys] for c in sumsets._class_layers(gen)[0]]


def fft_sizes(gen):
    """Layer sizes grown by the FFT step, whatever H is."""
    h_hat, size = gen.indicator_fft(), gen.ambient_size
    return tuple(sumsets._grow(np.arange(size) == 0,
                               lambda new: sumsets._sumset_support(new, h_hat),
                               np.count_nonzero, size)[1])


def oracle_layers(gen, count):
    """The first ``count`` layers grown with the scalar ``sumset``."""
    grown = [{0}]
    while len(grown) < count:
        grown.append(grown[-1] | sumset(grown[-1], gen.members, gen.base))
    return grown


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
    assert lay.sizes[-1] == lay.sizes[-2] and not lay.covered
    assert lay.limit_index is None


def test_layers_are_nested_and_start_correctly():
    gen = generator_set(make_field(7), "plus")
    lay = cumulative_layers(gen)
    masks = layer_masks(lay)
    assert np.flatnonzero(masks[0]).tolist() == [0]
    assert np.flatnonzero(masks[1]).tolist() == [0, *gen.members]
    for t in range(len(masks) - 1):
        assert not np.any(masks[t] & ~masks[t + 1])
    assert [int(m.sum()) for m in masks] == list(lay.sizes)


@pytest.mark.parametrize("p,k,family", [
    (5, 1, "plus"), (5, 1, "minus"), (7, 1, "plus"), (7, 1, "minus"),
    (13, 1, "plus"), (13, 1, "minus"), (3, 2, "plus"), (5, 2, "minus"),
    (3, 3, "minus")])
def test_layers_match_scalar_sumset_oracle(p, k, family):
    gen = generator_set(make_field(p, k), family)
    lay = cumulative_layers(gen)
    masks = layer_masks(lay)
    for t, grown in enumerate(oracle_layers(gen, len(masks))):
        assert set(np.flatnonzero(masks[t]).tolist()) == grown, f"layer {t}"


@pytest.mark.parametrize("family", ["plus", "minus"])
@pytest.mark.parametrize("p,k", oracles.KERNEL_FIELDS)
def test_class_layers_match_the_rfftn_of_the_indicator(monkeypatch, p, k, family):
    # the class steps from wide sums grow the layer sizes that numpy's rfftn
    # of the q^2 indicator grows, also with one class per chunk
    gen = generator_set(make_field(p, k), family)
    h_hat, size = oracles.indicator_rfftn(gen), gen.ambient_size
    want = sumsets._grow(np.arange(size) == 0,
                         lambda new: sumsets._sumset_support(new, h_hat),
                         np.count_nonzero, size)[1]
    for entries in (fields.CHUNK_ENTRIES, 1):
        monkeypatch.setattr(fields, "CHUNK_ENTRIES", entries)
        assert cumulative_layers(gen).sizes == tuple(int(s) for s in want)


@pytest.mark.parametrize("p,k,family", [(7, 1, "plus"), (13, 1, "minus"),
                                        (3, 2, "plus"), (5, 2, "minus")])
def test_off_curve_set_takes_the_fft_route(p, k, family):
    base = make_field(p, k)
    gen = generator_set(base, family)
    # one representative moved off the curve
    off = next(z for z in range(1, gen.ambient_size)
               if z not in gen.members and pair_neg(base, z) not in gen.members)
    odd = from_representatives(base, family, list(gen.reps[:-1]) + [off])
    assert odd.classes is None
    lay = cumulative_layers(odd)
    want = oracle_layers(odd, len(lay.sizes))
    assert lay.sizes == tuple(len(c) for c in want)


def test_fft_route_gates_itself_before_allocating():
    # an off-curve set takes the FFT, which holds q^2 complex entries, so
    # the layers refuse q^2 = 1031^2 > 2^20 themselves, with the library's
    # one size message, not only behind the CLI's pre-check
    tracemalloc.start()
    try:
        base = make_field(1031)
        gen = generator_set(base, "plus")
        off = next(z for z in range(1, gen.ambient_size) if z not in gen.members)
        odd = from_representatives(base, "plus", list(gen.reps[:-1]) + [off])
        with pytest.raises(SizeCapError,
                           match=r"^q\^2 = 1062961 exceeds cap 1048576$"):
            classify(odd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p,k,family", [(13, 1, "plus"), (23, 1, "minus"),
                                        (5, 2, "plus"), (5, 3, "minus")])
def test_subset_on_a_curve_never_calls_the_fft(capsys, monkeypatch, p, k, family):
    def refuse(*args, **kwargs):
        raise AssertionError("np.fft called on the class route")
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert main(["subset", "--p", str(p), "--k", str(k), "--family", family]) == 0
    assert "layers: " in capsys.readouterr().out


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


def test_off_curve_layers_json_holds_python_ints():
    # the FFT route counts with numpy; its sizes must still be JSON ints
    base = make_field(13)
    gen = generator_set(base, "plus")
    off = next(z for z in range(1, gen.ambient_size)
               if z not in gen.members and pair_neg(base, z) not in gen.members)
    odd = classify(from_representatives(base, "plus", list(gen.reps[:-1]) + [off]))
    d = json.loads(json.dumps(odd.to_json_dict()))
    assert odd.layers.generator.classes is None
    assert all(type(s) is int for s in odd.layers.sizes)
    assert odd.layers.covered is True
    assert d["layer_sizes"] == [1, 15, 101, 169] and d["verdict"] == NEITHER
    assert d["detail"] == "layer sizes [1, 15, 101, 169] vs balls [1, 15, 113, 575]"


# -- the paper's theorem across every field with 5 <= p and q < 400 ------------

# field: plus/minus, each the verdict (Q QuasiPerfect2, N Neither), the
# critical index and the limit index, as computed by the FFT layers
SWEEP = """
5:N13/N24 5^2:Q23/N13 5^3:N13/Q23 7:Q23/N14 7^2:Q23/N13 7^3:Q23/N13 11:N13/Q23 11^2:Q23/N13
13:Q23/N13 13^2:Q23/N13 17:N13/Q23 17^2:Q23/N13 19:Q23/N13 19^2:Q23/N13 23:N13/Q23 29:N13/Q23
31:Q23/N13 37:Q23/N13 41:N13/Q23 43:Q23/N13 47:N13/Q23 53:N13/Q23 59:N13/Q23 61:Q23/N13
67:Q23/N13 71:N13/Q23 73:Q23/N13 79:Q23/N13 83:N13/Q23 89:N13/Q23 97:Q23/N13 101:N13/Q23
103:Q23/N13 107:N13/Q23 109:Q23/N13 113:N13/Q23 127:Q23/N13 131:N13/Q23 137:N13/Q23 139:Q23/N13
149:N13/Q23 151:Q23/N13 157:Q23/N13 163:Q23/N13 167:N13/Q23 173:N13/Q23 179:N13/Q23 181:Q23/N13
191:N13/Q23 193:Q23/N13 197:N13/Q23 199:Q23/N13 211:Q23/N13 223:Q23/N13 227:N13/Q23 229:Q23/N13
233:N13/Q23 239:N13/Q23 241:Q23/N13 251:N13/Q23 257:N13/Q23 263:N13/Q23 269:N13/Q23 271:Q23/N13
277:Q23/N13 281:N13/Q23 283:Q23/N13 293:N13/Q23 307:Q23/N13 311:N13/Q23 313:Q23/N13 317:N13/Q23
331:Q23/N13 337:Q23/N13 347:N13/Q23 349:Q23/N13 353:N13/Q23 359:N13/Q23 367:Q23/N13 373:Q23/N13
379:Q23/N13 383:N13/Q23 389:N13/Q23 397:Q23/N13
"""
VERDICTS = {"Q": QUASI_PERFECT_2, "N": NEITHER}

# field: the spectrum's classification for plus, then minus (R Ramanujan,
# A AlmostRamanujan), and max_nontrivial_abs to 10 decimals, which the two
# families share at every field
SPECTRA = """
5:RR3.2360679775 5^2:RA9.8541019662 5^3:RR21.3262379212 7:RA4.4939592074
7^2:RR13.3055856223 7^3:RA37.0234262066 11:RR5.7169527154 11^2:RA21.9689141342
13:RR6.2962298106 13^2:RA25.9425739718 17:RA7.9603460641 17^2:RR33.1248033365
19:RR7.6097286321 19^2:RR37.5480058325 23:RR7.9606871866 29:RR9.5002808613
31:RR10.6665104938 37:RR11.4725832074 41:RR11.3363952163 43:RR11.9622301226
47:RR13.2467640222 53:RA14.3082506056 59:RR14.9175770018 61:RR15.3417528102
67:RR15.0943776187 71:RR15.8699444378 73:RR15.9412475639 79:RR17.1019248013
83:RR17.7087277420 89:RR18.1347973593 97:RR18.6108195846 101:RR19.2873132011
103:RR20.0321887539 107:RR20.2105871938 109:RR20.1781269318 113:RR20.9713417563
127:RR21.9701613816 131:RR22.1822267821 137:RR23.0627759966 139:RA23.5130839307
149:RR23.8505011078 151:RR23.6680072810 157:RR24.6230853452 163:RA25.3789726544
167:RR25.4682817529 173:RR24.9882984196 179:RR26.1254213946 181:RR25.9591709475
191:RR27.2062100130 193:RR27.2997352838 197:RR27.3651379605 199:RR27.5726697150
211:RA28.9768532377 223:RR29.2309298290 227:RR29.5922929695 229:RR30.0001201058
233:RR29.7013127594 239:RR30.6833110627 241:RR30.3461466127 251:RR31.2425568855
257:RR31.8811671863 263:RR31.7838404910 269:RR32.6111517046 271:RR32.4924521746
277:RR32.6191438153 281:RR32.7707576457 283:RR33.4841231800 293:RR33.3604718679
307:RR34.7854080601 311:RR34.3997059100 313:RR34.4656768918 317:RR35.4927128580
331:RR35.8787039015 337:RR36.5149632223 347:RR35.9893906787 349:RR36.4229159723
353:RR37.3652059844 359:RR37.4342513408 367:RR37.8419992354 373:RR38.2826749006
379:RR38.2481319930 383:RR38.7150683004 389:RR38.9781331849 397:RR39.3785958990
"""
CLASSIFICATIONS = {"R": RAMANUJAN, "A": ALMOST_RAMANUJAN}


def sweep_table() -> dict:
    table = {}
    for entry in SWEEP.split():
        field, verdicts = entry.split(":")
        p, _, k = field.partition("^")
        for family, v in zip(("plus", "minus"), verdicts.split("/")):
            table[int(p), int(k or 1), family] = (VERDICTS[v[0]], int(v[1]), int(v[2]))
    return table


def spectra_table() -> dict:
    table = {}
    for entry in SPECTRA.split():
        field, value = entry.split(":")
        p, _, k = field.partition("^")
        for family, c in zip(("plus", "minus"), value[:2]):
            table[int(p), int(k or 1), family] = (CLASSIFICATIONS[c], float(value[2:]))
    return table


def test_theorem_sweep_is_frozen_and_q11_minus_is_the_only_exception():
    table, spectra = sweep_table(), spectra_table()
    fields = {(p, k) for p in range(5, 400) if is_prime(p)
              for k in range(1, 5) if p ** k < 400}
    assert {(p, k) for p, k, _ in table} == fields
    assert spectra.keys() == table.keys()
    exceptions = []
    for (p, k, family), want in sorted(table.items()):
        gen = generator_set(make_field(p, k), family)
        cls = classify(gen)
        lay = cls.layers
        assert (cls.verdict, lay.critical_index, lay.limit_index) == want, (p, k, family)
        rep = full_spectrum(gen)
        label, max_abs = spectra[p, k, family]
        assert rep.classification == label, (p, k, family)
        assert abs(rep.max_nontrivial_abs - max_abs) <= 1e-9, (p, k, family)
        if (cls.verdict == QUASI_PERFECT_2) != admissibility(p, k, family).admissible:
            exceptions.append((p, k, family))
    # the paper's q > 12 is sufficient for the minus family, not necessary
    assert exceptions == [(11, 1, "minus")]


# every field with q < 100 and every third one above, both families
FFT_SWEEP = [key for i, key in enumerate(sorted(sweep_table()))
             if key[0] ** key[1] < 100 or i % 6 < 2]


@pytest.mark.parametrize("p,k,family", FFT_SWEEP)
def test_class_route_sizes_match_the_fft(p, k, family):
    gen = generator_set(make_field(p, k), family)
    assert cumulative_layers(gen).sizes == fft_sizes(gen)
