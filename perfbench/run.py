"""Benchmark for quasilee: CLI end-to-end times and per-layer timings.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all four workloads one after the other.  Each
workload runs in its own child process (child.py), which calls the CLI
in-process with --out into a work directory under perfbench/.work; this
process makes the inputs from the seed beforehand and checks the outputs
afterwards against computations of its own (oracles.py).  The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SETUP_CHILDREN = 5        # set-up-only children; setup_s is their median
RUN_BUDGET_S = 175        # a run must end well inside 180 s

E2E_UNITS = {"setup_s": "s", "cli_round_s": "s", "call_geomean_s": "s",
             "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_child(plan_path: Path, deadline: float, *flags) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(plan_path), *flags],
                              env=_child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(wl, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Prepare, run and check one workload; returns the result record."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        plan = wl.prepare(seed, work)
        plan.update(root=str(ROOT), seconds=seconds, trace=trace,
                    setup_rungs=[r.spec() for r in wl.rungs], host_weights=wl.host_weights,
                    probe=workloads.PROBE.spec())
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))

        setups = [_run_child(plan_path, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_CHILDREN)]
        res = _run_child(plan_path, deadline)

        calls = [c for rnd in res["rounds"] for c in rnd] + res.get("traced_round", [])
        faults = wl.check(plan, work)
        for i, op in enumerate(plan["round"]):
            digests = {rnd[i]["digest"] for rnd in res["rounds"] + [res.get("traced_round")]
                       if rnd and rnd[i]["rc"] == 0}
            if len(digests) > 1:
                faults.append(f"{op['label']}: output differs between rounds")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_call = {op["label"]: {key: statistics.median(rnd[i][key] for rnd in res["rounds"])
                              for key in ("ref_s", "cpu_s", "wall_s")}
                for i, op in enumerate(plan["round"])}
    for i, op in enumerate(plan["round"]):
        per_call[op["label"]]["probe_us"] = {
            probe: statistics.median(rnd[i]["probe_us"][probe] for rnd in res["rounds"])
            for probe in wl.host_weights}
    e2e = {
        "setup_s": statistics.median(setups),
        "cli_round_s": statistics.median(sum(c["ref_s"] for c in rnd) for rnd in res["rounds"]),
        "call_geomean_s": math.exp(statistics.fmean(
            math.log(c["ref_s"]) for c in per_call.values())),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    return {
        "workload": wl.name, "seed": seed, "rounds": len(res["rounds"]),
        "attempted": len(calls), "failed": sum(c["rc"] != 0 for c in calls),
        "faults": faults, "e2e": e2e, "per_call": per_call, "layers": res.get("layers"),
        "words": getattr(wl, "words", None),
        "cpu_round_s": statistics.median(sum(c["cpu_s"] for c in rnd) for rnd in res["rounds"]),
        "slowdown": statistics.median(c["cpu_s"] / c["ref_s"] for rnd in res["rounds"] for c in rnd),
    }


def report(r: dict, trace: int) -> dict:
    """Print one workload's figures; return the metrics for the JSON line."""
    print(f"== {r['workload']} seed={r['seed']} rounds={r['rounds']} "
          f"attempted={r['attempted']} failed={r['failed']} "
          f"correct={'yes' if not r['faults'] else 'no'}")
    for fault in r["faults"]:
        print(f"   FAULT {fault}")
    for label, t in r["per_call"].items():
        print(f"   {label:<32} {t['ref_s']:10.4f} s  (CPU {t['cpu_s']:.4f} s, "
              f"wall {t['wall_s']:.4f} s, host x{t['cpu_s'] / t['ref_s']:.3f}; probes "
              + ", ".join(f"{probe} {us:.1f} us" for probe, us in t["probe_us"].items()) + ")")
        if label.startswith("decode_s.") and r["words"]:
            rate = label.replace("decode_s.", "decode_words_per_s.")
            print(f"   {rate:<32} {r['words'] / t['ref_s']:10.1f} words/s")
    for name, val in r["e2e"].items():
        print(f"   {name:<32} {val:12.4f} {E2E_UNITS[name]}")
    if not trace:
        return {name: {"value": val, "unit": E2E_UNITS[name]} for name, val in r["e2e"].items()}
    lay = r["layers"]
    metrics = {"host.cli_round_cpu_s": {"value": r["cpu_round_s"], "unit": "s"},
               "host.slowdown_ratio": {"value": r["slowdown"], "unit": "ratio"}}
    print(f"   {'host.cli_round_cpu_s':<38} {r['cpu_round_s']:14.6g} s    raw CPU, median round")
    print(f"   {'host.slowdown_ratio':<38} {r['slowdown']:14.6g} ratio "
          f"raw over rescaled CPU time, median over the rounds' calls")
    for name, val in lay["metrics"].items():
        unit = name.rsplit("_", 1)[1].replace("mib", "MiB")
        metrics[name] = {"value": val, "unit": unit}
        where = lay["source"].get(name, "")
        rungs = " ".join(f"{rung}={v:.6g}" for rung, v in lay["by_rung"].get(name, {}).items())
        print(f"   {name:<38} {val:14.6g} {unit:<4} {where}: {rungs}")
    base, over = r["e2e"]["cli_round_s"], lay["metrics"]["trace.overhead_s"]
    print(f"   tracing overhead: {over:+.4f} s on a {base:.4f} s round "
          f"({100 * over / base:+.2f} %); the wrappers alone account for "
          f"{lay['spans']} spans x {1e6 * lay['span_cost_s']:.2f} us = "
          f"{lay['spans'] * lay['span_cost_s']:.4f} s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quasilee" / "__init__.py").is_file():
        print(f"error: no quasilee sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results, metrics = [], {}
    try:
        for name in names:
            r = run_workload(workloads.WORKLOADS[name](), args.seed, args.seconds,
                             args.trace, time.monotonic() + RUN_BUDGET_S)
            results.append(r)
            for metric, val in report(r, args.trace).items():
                metrics[metric if args.workload else f"{name}.{metric}"] = val
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not any(r["faults"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
