"""The benchmark's workloads: the CLI calls each one makes, the inputs it
generates from the seed, and the checks on the program's outputs.

A rung is one input (p, k, family), named ``p<p>k<k>_<family>``; lemma
rungs have no family.  Every workload runs the same list of CLI calls in
each round.  ``prepare`` writes the inputs into a work directory and
returns the plan the child process runs; ``check`` reads back what the
program wrote and returns a list of faults, empty when every output is
right.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles


@dataclass(frozen=True)
class Rung:
    name: str
    p: int
    k: int
    family: str = None

    @property
    def q(self) -> int:
        return self.p ** self.k

    @property
    def n(self) -> int:
        """Code length: half of |H| = q + 1 (plus) or q - 1 (minus)."""
        return (self.q + 1) // 2 if self.family == "plus" else (self.q - 1) // 2

    @property
    def args(self) -> list:
        fam = ["--family", self.family] if self.family else []
        return ["--p", str(self.p), "--k", str(self.k)] + fam

    def spec(self) -> list:
        return [self.name, self.p, self.k, self.family]


def _rung(name: str) -> Rung:
    head, _, family = name.partition("_")
    p, k = head[1:].split("k")
    return Rung(name, int(p), int(k), family or None)


# Warm-up runs each subcommand once on a small rung before timing starts.
WARM = _rung("p13k1_plus")
WARM_LEMMA = _rung("p5k1")


def _op(work: Path, label: str, rung: Rung, argv: list, stdin: Path = None) -> dict:
    return {"label": label, "rung": rung.name, "argv": argv,
            "stdin": None if stdin is None else str(stdin),
            "out": str(work / f"{label}.out")}


def _codegen_ops(work: Path, rungs) -> list:
    """code-gen for extension rungs, whose H the checks take from the
    program's matrix; run during warm-up, outside the timed rounds."""
    return [_op(work, f"codegen.{r.name}", r, ["code-gen", *r.args, "--format", "json"])
            for r in rungs if r.k > 1]


def _generators(rung: Rung, work: Path, faults: list):
    """H as rows of Z_p^{2k}: built here for a prime field, read from the
    code-gen matrix for an extension field.  Checked for size and symmetry;
    None when the matrix cannot be read."""
    if rung.k == 1:
        h = oracles.prime_generators(rung.p, rung.family)
    else:
        try:
            d = json.loads((work / f"codegen.{rung.name}.out").read_text())
            reps = np.array(d["matrix"]["rows"], dtype=np.int64).T
        except (OSError, ValueError, KeyError, TypeError) as exc:
            faults.append(f"{rung.name}: unreadable code-gen matrix ({exc})")
            return None
        h = oracles.symmetric_closure(reps, rung.p)
    size = rung.q + 1 if rung.family == "plus" else rung.q - 1
    faults += [f"{rung.name}: {f}" for f in oracles.generator_faults(h, rung.p, size)]
    return h


def _read_json(op: dict, faults: list):
    try:
        return json.loads(Path(op["out"]).read_text())
    except (OSError, ValueError) as exc:
        faults.append(f"{op['label']}: unreadable output ({exc})")
        return None


class Verify:
    """code-verify on each rung: decoder table against sumset layers,
    then a seeded decode round trip."""
    name = "verify"
    host_weights = {"interpreter": 1.0}

    def __init__(self, rungs=("p97k1_plus", "p5k3_minus"), trials=200):
        self.rungs = [_rung(r) for r in rungs]
        self.trials = trials

    def prepare(self, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        warm = _codegen_ops(work, self.rungs) + [
            _op(work, "warm", WARM, ["code-verify", *WARM.args, "--trials", "20"])]
        ops = [_op(work, f"code_verify_s.{r.name}", r,
                   ["code-verify", *r.args, "--seed", str(int(rng.integers(2 ** 31))),
                    "--trials", str(self.trials), "--format", "json"])
               for r in self.rungs]
        return {"warmup": warm, "round": ops}

    def check(self, plan: dict, work: Path) -> list:
        faults = []
        for op, r in zip(plan["round"], self.rungs):
            d = _read_json(op, faults)
            if d is None:
                continue
            h = _generators(r, work, faults)
            if h is None:
                continue
            m = oracles.representatives(h, r.p).T
            balls = oracles.lee_ball_sizes(r.n)
            want_hist = {"0": 1, "1": 2 * r.n, "2": 2 * r.n ** 2,
                         "3": r.q ** 2 - balls[2]}
            want = {
                "n": r.n,
                "dimension": r.n - oracles.rank_mod_p(m, r.p),
                "quasi_perfect": True,
                "leader_weight_histogram": want_hist,
                "round_trip ok": self.trials,
                "round_trip trials": self.trials,
            }
            got = {key: d.get(key) for key in want}
            got["round_trip ok"] = d.get("round_trip", {}).get("ok")
            got["round_trip trials"] = d.get("round_trip", {}).get("trials")
            faults += [f"{op['label']}: {key} = {got[key]!r}, expected {val!r}"
                       for key, val in want.items() if got[key] != val]
        return faults


class Decode:
    """One CLI decode call reading a seeded stream of words on stdin."""
    name = "decode"
    host_weights = {"interpreter": 1.0}
    NOISY_SHARE = 0.8

    def __init__(self, rung="p97k1_plus", words=20000):
        self.rung = _rung(rung)
        self.rungs = [self.rung]
        self.words = words

    def prepare(self, seed: int, work: Path) -> dict:
        r = self.rung
        if r.k != 1:
            raise ValueError("the decode workload builds its own matrix: prime fields only")
        rng = np.random.default_rng(seed)
        self.matrix = oracles.representatives(oracles.prime_generators(r.p, r.family), r.p).T
        basis = oracles.null_space_mod_p(self.matrix, r.p)
        count = self.words
        coeffs = rng.integers(0, r.p, size=(count, len(basis)))
        codewords = coeffs @ basis % r.p
        noisy = (codewords + oracles.sample_ball2(rng, count, r.n, r.p)) % r.p
        uniform = rng.integers(0, r.p, size=(count, r.n))
        self.is_noisy = rng.permutation(count) < round(self.NOISY_SHARE * count)
        self.sent = np.where(self.is_noisy[:, None], noisy, uniform)
        self.source = codewords

        mpath, wpath = work / "matrix.txt", work / "words.txt"
        head = f"{r.p} {r.k} {r.n} {r.family}\n"
        mpath.write_text(head + "\n".join(" ".join(map(str, row)) for row in self.matrix) + "\n")
        wpath.write_text("\n".join(" ".join(map(str, w)) for w in self.sent) + "\n")
        warm_words = work / "warm_words.txt"
        warm_words.write_text("\n".join(" ".join(map(str, w))
                                        for w in rng.integers(0, WARM.p, size=(20, WARM.n))))
        warm = [_op(work, "warm", WARM, ["decode", *WARM.args], warm_words)]
        ops = [_op(work, f"decode_s.{r.name}", r, ["decode", "--matrix", str(mpath)], wpath)]
        return {"warmup": warm, "round": ops}

    def check(self, plan: dict, work: Path) -> list:
        r, op = self.rung, plan["round"][0]
        try:
            lines = Path(op["out"]).read_text().splitlines()
            parts = [ln.split(" | ") for ln in lines]
            cw = np.array([s[0].split() for s in parts], dtype=np.int64)
            err = np.array([s[1].split() for s in parts], dtype=np.int64)
            weight = np.array([s[2] for s in parts], dtype=np.int64)
        except (OSError, ValueError, IndexError) as exc:
            return [f"{op['label']}: unparsable output ({exc})"]
        if cw.shape != self.sent.shape or err.shape != self.sent.shape:
            return [f"{op['label']}: {len(lines)} output lines for {len(self.sent)} words"]
        faults = []
        checks = {
            "codeword with nonzero syndrome":
                oracles.syndromes(self.matrix, cw, r.p).any(axis=1),
            "codeword + error differs from the word":
                ((cw + err - self.sent) % r.p).any(axis=1),
            "error weight differs from the reported weight":
                oracles.lee_weights(err, r.p) != weight,
            "error of Lee weight above 3": weight > 3,
            "word within radius 2 not decoded to its source codeword":
                self.is_noisy & (cw != self.source).any(axis=1),
        }
        for what, bad in checks.items():
            if bad.any():
                faults.append(f"{op['label']}: {int(bad.sum())} words: {what}")
        return faults


class Cayley:
    """subset and spectrum on each rung: sumset layers and the Cayley
    graph spectrum."""
    name = "cayley"
    # Half numpy passes over arrays far larger than the cache, half Python.
    host_weights = {"interpreter": 0.5, "memory": 0.5}
    HIST_TOL = 1e-6
    MAX_TOL = 1e-9

    def __init__(self, rungs=("p307k1_plus", "p311k1_minus", "p13k2_plus")):
        self.rungs = [_rung(r) for r in rungs]

    def prepare(self, seed: int, work: Path) -> dict:
        warm = _codegen_ops(work, self.rungs) + [
            _op(work, "warm_subset", WARM, ["subset", *WARM.args]),
            _op(work, "warm_spectrum", WARM, ["spectrum", *WARM.args])]
        ops = []
        for r in self.rungs:
            ops.append(_op(work, f"subset_s.{r.name}", r,
                           ["subset", *r.args, "--format", "json"]))
            ops.append(_op(work, f"spectrum_s.{r.name}", r,
                           ["spectrum", *r.args, "--format", "json"]))
        return {"warmup": warm, "round": ops}

    def check(self, plan: dict, work: Path) -> list:
        faults = []
        for i, r in enumerate(self.rungs):
            sub_op, spec_op = plan["round"][2 * i], plan["round"][2 * i + 1]
            sub, spec = _read_json(sub_op, faults), _read_json(spec_op, faults)
            h = _generators(r, work, faults)
            if sub is not None:
                want = oracles.lee_ball_sizes(r.n) + [r.q ** 2]
                if sub.get("layer_sizes") != want:
                    faults.append(f"{sub_op['label']}: layers {sub.get('layer_sizes')}, "
                                  f"expected {want}")
                if sub.get("verdict") != "QuasiPerfect2":
                    faults.append(f"{sub_op['label']}: verdict {sub.get('verdict')}")
            if spec is not None and h is not None:
                faults += [f"{spec_op['label']}: {f}"
                           for f in self._spectrum_faults(spec, h, r)]
        return faults

    def _spectrum_faults(self, spec: dict, h: np.ndarray, r: Rung) -> list:
        eigs = oracles.cayley_eigenvalues(h, r.p)
        faults = []
        hist = spec.get("histogram", {})
        got = np.sort(np.repeat([float(v) for v in hist], [int(c) for c in hist.values()]))
        if len(got) != len(eigs):
            faults.append(f"histogram holds {len(got)} eigenvalues, expected {len(eigs)}")
        elif np.abs(got - np.sort(eigs)).max() > self.HIST_TOL:
            faults.append("histogram differs from the Fourier eigenvalues")
        want_max = float(np.abs(eigs[1:]).max())
        got_max = spec.get("max_nontrivial_abs", math.inf)
        if abs(got_max - want_max) > self.MAX_TOL:
            faults.append(f"max_nontrivial_abs {got_max!r}, Fourier gives {want_max!r}")
        if not got_max <= 2 * math.sqrt(r.q) + self.MAX_TOL:
            faults.append(f"max_nontrivial_abs {got_max!r} above 2*sqrt(q)")
        connected = int((np.abs(eigs - len(h)) <= self.MAX_TOL).sum()) == 1
        if not (connected and spec.get("connected") is True):
            faults.append(f"connected is {spec.get('connected')}, Fourier says {connected}")
        if spec.get("degree") != len(h) or spec.get("vertices") != r.q ** 2:
            faults.append(f"degree {spec.get('degree')} / vertices {spec.get('vertices')}")
        return faults


class Lemmas:
    """lemma-suite on each rung: the brute-force battery."""
    name = "lemmas"
    host_weights = {"interpreter": 1.0}

    def __init__(self, rungs=("p23k1", "p5k2")):
        self.rungs = [_rung(r) for r in rungs]

    def prepare(self, seed: int, work: Path) -> dict:
        warm = [_op(work, "warm", WARM_LEMMA, ["lemma-suite", *WARM_LEMMA.args])]
        ops = [_op(work, f"lemma_suite_s.{r.name}", r,
                   ["lemma-suite", *r.args, "--format", "json"]) for r in self.rungs]
        return {"warmup": warm, "round": ops}

    def check(self, plan: dict, work: Path) -> list:
        faults = []
        for op, r in zip(plan["round"], self.rungs):
            d = _read_json(op, faults)
            if d is None:
                continue
            want = 16 if r.p > 3 else 14
            failing = [c["name"] for c in d.get("checks", []) if not c.get("passed")]
            if d.get("total") != want or d.get("passed") != want or failing:
                faults.append(f"{op['label']}: {d.get('passed')}/{d.get('total')} passed, "
                              f"expected {want}/{want}; failing {failing}")
        return faults


WORKLOADS = {w.name: w for w in (Verify, Decode, Cayley, Lemmas)}

# Layers the traced round never calls are timed here instead.
PROBE = _rung("p13k1_plus")

# The smallest rungs, run through the same checks by selftest.py.
SELFTEST = {
    "verify": lambda: Verify(("p13k1_plus", "p17k1_minus"), trials=50),
    "decode": lambda: Decode("p13k1_plus", words=500),
    "cayley": lambda: Cayley(("p13k1_plus", "p17k1_minus", "p5k2_plus")),
    "lemmas": lambda: Lemmas(("p3k2",)),
}
