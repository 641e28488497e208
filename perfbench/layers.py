"""Per-layer measurements for the traced run.

The layers are the modules of quasilee.  ``Tracer`` wraps the public
functions listed in TRACED, in every quasilee module that holds a
reference to them, and keeps one span per call in memory: (id, name,
parent id, rung, start, end).  ``measure`` turns the spans of one traced
round into per-layer metrics and adds what spans cannot give:

* scalar field operations, timed from outside on every rung of the workload;
* peak memory of three array-heavy stages, taken with tracemalloc from one
  call on the first rung whose round reached the stage;
* any stage the round never reached, timed from outside at the probe rung,
  so that every traced run reports every metric.
"""

import contextlib
import itertools
import random
import statistics
import sys
import time
import tracemalloc

import quasilee

TRACED = {
    "fields": ["make_field"],
    "curves": ["generator_set", "norm_circle", "unit_hyperbola",
               "from_representatives", "admissibility"],
    "sumsets": ["classify", "cumulative_layers", "sumset"],
    "codes": ["build_code", "code_parameters", "parity_check_matrix",
              "matrix_from_text", "matrix_from_json_dict", "rank_mod_p",
              "coset_leader_table", "verify_quasi_perfect", "round_trip_check",
              "decode", "syndrome"],
    "spectra": ["full_spectrum"],
    "lemmas": ["lemma_battery"],
    "cli": ["main"],
}

# metric -> spans whose total time it is (nested spans of the group count
# once); the first span names the stage timed at the probe rung
SPAN_TOTALS = {
    "fields.make_field_s": ("fields.make_field",),
    "curves.generator_set_s": ("curves.generator_set", "curves.norm_circle",
                               "curves.unit_hyperbola", "curves.from_representatives"),
    "sumsets.cumulative_layers_s": ("sumsets.cumulative_layers",),
    "sumsets.sumset_s": ("sumsets.sumset",),
    "codes.rank_mod_p_s": ("codes.rank_mod_p",),
    "codes.coset_leader_table_s": ("codes.coset_leader_table",),
    "codes.verify_quasi_perfect_s": ("codes.verify_quasi_perfect",),
    "codes.round_trip_check_s": ("codes.round_trip_check",),
    "spectra.full_spectrum_s": ("spectra.full_spectrum",),
    "lemmas.lemma_battery_s": ("lemmas.lemma_battery",),
}
# metric -> span whose mean duration per call it is, in microseconds
SPAN_MEANS_US = {"codes.syndrome_us": "codes.syndrome", "codes.decode_us": "codes.decode"}

PEAKS_MIB = {
    "sumsets.cumulative_layers_peak_mib": "sumsets.cumulative_layers",
    "codes.coset_leader_table_peak_mib": "codes.coset_leader_table",
    "spectra.full_spectrum_peak_mib": "spectra.full_spectrum",
}

MICRO_CALLS = 2000
KLOOSTERMAN_CALLS = 5
PROBE_REPEATS = 3


class Tracer:
    def __init__(self):
        self.spans = []
        self.rung = None
        self._stack = []
        self._ids = itertools.count()

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                spans.append((sid, name, parent, self.rung, start, end))
        return traced

    @contextlib.contextmanager
    def installed(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "quasilee" or n.startswith("quasilee.")]
        patches = []
        try:
            for modname, names in TRACED.items():
                home = sys.modules[f"quasilee.{modname}"]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapped = self._wrap(f"{modname}.{fname}", orig)
                    for mod in mods:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                patches.append((mod, attr, orig))
                                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, orig in reversed(patches):
                setattr(mod, attr, orig)


def _span_totals(spans):
    """metric -> {rung: CPU seconds} for SPAN_TOTALS and the CLI's own time."""
    names = {s[0]: s[1] for s in spans}
    parent = {s[0]: s[2] for s in spans}
    out = {}
    for metric, group in SPAN_TOTALS.items():
        per_rung = {}
        for sid, name, par, rung, start, end in spans:
            if name not in group:
                continue
            while par is not None and names[par] not in group:
                par = parent[par]
            if par is None:
                per_rung[rung] = per_rung.get(rung, 0.0) + end - start
        if per_rung:
            out[metric] = per_rung
    # the CLI's own time: each main() call minus the library calls it made
    child_time = {}
    for sid, name, par, rung, start, end in spans:
        if par is not None and names[par] == "cli.main":
            child_time[par] = child_time.get(par, 0.0) + end - start
    cli = {}
    for sid, name, par, rung, start, end in spans:
        if name == "cli.main":
            cli[rung] = cli.get(rung, 0.0) + end - start - child_time.get(sid, 0.0)
    out["cli.overhead_s"] = cli
    return out


def _span_means_us(spans):
    out = {}
    for metric, target in SPAN_MEANS_US.items():
        per_rung = {}
        for sid, name, par, rung, start, end in spans:
            if name == target:
                per_rung.setdefault(rung, []).append(end - start)
        if per_rung:
            out[metric] = {r: 1e6 * statistics.fmean(d) for r, d in per_rung.items()}
    return out


def _timed(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def _micro(built):
    """Scalar field operations on each distinct field of the workload."""
    q = quasilee
    out = {"fields.pair_add_us": {}, "fields.quadext_mul_us": {},
           "fields.kloosterman_ms": {}}
    for name, ctx, _ in built:
        if name in out["fields.pair_add_us"]:
            continue
        rng = random.Random(0)
        pairs = [(rng.randrange(ctx.q ** 2), rng.randrange(ctx.q ** 2))
                 for _ in range(MICRO_CALLS)]
        ext = q.QuadExt(ctx)
        bs = [rng.randrange(1, ctx.q) for _ in range(KLOOSTERMAN_CALLS)]
        out["fields.pair_add_us"][name] = 1e6 * _timed(
            lambda: [q.pair_add(ctx, a, b) for a, b in pairs]) / MICRO_CALLS
        out["fields.quadext_mul_us"][name] = 1e6 * _timed(
            lambda: [ext.mul(a, b) for a, b in pairs]) / MICRO_CALLS
        out["fields.kloosterman_ms"][name] = 1e3 * _timed(
            lambda: [q.kloosterman(ctx, 1, b) for b in bs]) / KLOOSTERMAN_CALLS
    return out


def _span_cost_s(calls=20000) -> float:
    """CPU cost one span adds: a wrapped no-op call minus a bare one."""
    def noop():
        pass
    wrapped = Tracer()._wrap("noop", noop)
    bare = _timed(lambda: [noop() for _ in range(calls)])
    return (_timed(lambda: [wrapped() for _ in range(calls)]) - bare) / calls


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _stage_calls(gen):
    """Callables for each traced stage on one generator set."""
    q = quasilee
    ctx, p, k = gen.base, gen.p, gen.k
    mat = q.parity_check_matrix(gen)
    members = set(gen.members)
    return {
        "fields.make_field": lambda: q.make_field(p, k),
        "curves.generator_set": lambda: q.generator_set(ctx, gen.family),
        "sumsets.cumulative_layers": lambda: q.cumulative_layers(gen),
        "sumsets.sumset": lambda: q.sumset(members, members, ctx),
        "codes.rank_mod_p": lambda: q.rank_mod_p(mat.entries, p),
        "codes.coset_leader_table": lambda: q.coset_leader_table(mat),
        "spectra.full_spectrum": lambda: q.full_spectrum(gen),
        "lemmas.lemma_battery": lambda: q.lemma_battery(p, k),
    }


def _probe(gen, missing):
    """Time at the probe rung each metric the traced round did not reach."""
    q = quasilee
    calls = _stage_calls(gen)
    code = q.code_parameters(gen)
    table = q.coset_leader_table(code.matrix)
    calls["codes.verify_quasi_perfect"] = lambda: q.verify_quasi_perfect(code, table)
    calls["codes.round_trip_check"] = lambda: q.round_trip_check(table, 200, 0)
    rng = random.Random(0)
    words = [[rng.randrange(gen.p) for _ in range(gen.n)] for _ in range(200)]
    per_call = {
        "codes.syndrome_us": lambda: [q.syndrome(code.matrix, w) for w in words],
        "codes.decode_us": lambda: [q.decode(table, w) for w in words],
    }
    out = {}
    for metric in missing:
        if metric in per_call:
            secs = [_timed(per_call[metric]) for _ in range(PROBE_REPEATS)]
            out[metric] = 1e6 * statistics.median(secs) / len(words)
        else:
            stage = SPAN_TOTALS[metric][0]
            out[metric] = statistics.median(
                _timed(calls[stage]) for _ in range(PROBE_REPEATS))
    return out


def measure(tracer: Tracer, built, plan: dict, overhead_s: float) -> dict:
    """Per-layer metrics of one traced round: values, per-rung breakdown and
    where each value comes from."""
    spans = tracer.spans
    by_rung = _span_totals(spans)
    by_rung.update(_span_means_us(spans))
    source = {m: "traced round" for m in by_rung}
    micro = _micro(built)
    by_rung.update(micro)
    source.update({m: "workload rungs" for m in micro})

    name, p, k, family = plan["probe"]
    probe_gen = quasilee.generator_set(quasilee.make_field(p, k), family)
    gens = {}
    for rung, _, gen in built:
        gens.setdefault(rung, gen)
    for metric, stage in PEAKS_MIB.items():
        first = min((s for s in spans if s[1] == stage), key=lambda s: s[4], default=None)
        rung = first[3] if first else name
        call = _stage_calls(gens[rung] if first else probe_gen)[stage]
        by_rung[metric] = {rung: _peak_mib(call)}
        source[metric] = f"tracemalloc at {rung}"

    missing = [m for m in list(SPAN_TOTALS) + list(SPAN_MEANS_US) if m not in by_rung]
    for metric, value in _probe(probe_gen, missing).items():
        by_rung[metric] = {name: value}
        source[metric] = f"probe at {name}"

    metrics = {}
    for metric, per_rung in by_rung.items():
        vals = list(per_rung.values())
        mean = metric.endswith(("_us", "_ms", "_mib"))
        metrics[metric] = statistics.fmean(vals) if mean else sum(vals)
    metrics["trace.overhead_s"] = overhead_s
    return {"metrics": metrics, "by_rung": by_rung, "source": source,
            "spans": len(spans), "span_cost_s": _span_cost_s()}
