"""One workload run in its own process.

    python3 perfbench/child.py PLAN.json [--setup-only]

Sets up (imports quasilee, builds every rung's field and generator set),
warms up, then runs whole rounds of the plan's CLI calls in-process, each
writing its output with --out, until the plan's seconds have passed.
With tracing on, one more round runs with spans around the library's
public calls, followed by the per-layer pass of layers.py.  Prints one
JSON line with the timings; run.py checks the outputs.  Every time is CPU
time, also given rescaled to reference host speed (hostspeed.py).
"""

import time

START = time.process_time()

import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402


def build_rungs(quasilee, specs) -> list:
    """Field and generator set of every rung; lemma rungs get both families."""
    built = []
    for name, p, k, family in specs:
        ctx = quasilee.make_field(p, k)
        for fam in [family] if family else ["plus", "minus"]:
            built.append((name, ctx, quasilee.generator_set(ctx, fam)))
    return built


def peak_rss_mib() -> float:
    """This process's peak resident memory (VmHWM).  Unlike ru_maxrss, it
    does not carry over the parent's peak from before exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def run_op(cli, op: dict, speed: HostSpeed) -> dict:
    """One CLI call; returns its CPU time (raw, less the sampler's, and at
    reference host speed), the median cost of each host probe, wall time,
    exit code and output digest."""
    out = Path(op["out"])
    if out.exists():
        out.unlink()
    saved = sys.stdin
    stdin = open(op["stdin"]) if op["stdin"] else None
    try:
        if stdin is not None:
            sys.stdin = stdin
        t0, c0 = time.perf_counter(), time.process_time()
        rc = cli.main(op["argv"] + ["--out", str(out)])
        c1, wall_s = time.process_time(), time.perf_counter() - t0
    finally:
        sys.stdin = saved
        if stdin is not None:
            stdin.close()
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"ref_s": speed.rescale(c0, c1), "cpu_s": c1 - c0 - speed.own(c0, c1),
            "probe_us": {probe: 1e6 * speed.probe_cost(probe, c0, c1)
                         for probe in speed.weights}, "wall_s": wall_s,
            "rc": rc, "digest": digest}


def main(argv) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    # Set-up is imports and Python loops whatever the workload, so it is
    # always measured against the interpreter probe.
    speed = HostSpeed({"interpreter": 1.0} if "--setup-only" in argv else plan["host_weights"])
    speed.start()
    try:
        return run(plan, argv, speed)
    finally:
        speed.stop()


def run(plan: dict, argv, speed: HostSpeed) -> int:
    src = (Path(plan["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import quasilee
    if not Path(quasilee.__file__).resolve().is_relative_to(src):
        raise ImportError(f"quasilee was imported from {quasilee.__file__}, not {src}")
    built = build_rungs(quasilee, plan["setup_rungs"])
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": speed.rescale(START, time.process_time())}))
        return 0

    from quasilee import cli
    for op in plan["warmup"]:
        res = run_op(cli, op, speed)
        if res["rc"] != 0:
            raise RuntimeError(f"warm-up call {op['argv']} exited {res['rc']}")

    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < plan["seconds"]:
        rounds.append([run_op(cli, op, speed) for op in plan["round"]])
    result = {"rounds": rounds,
              "peak_rss_mib": peak_rss_mib() - speed.resident_mib}

    if plan["trace"]:
        import layers
        untraced = statistics.median(sum(r["ref_s"] for r in rnd) for rnd in rounds)
        tracer = layers.Tracer()
        with tracer.installed():
            traced = []
            for op in plan["round"]:
                tracer.rung = op["rung"]
                traced.append(run_op(cli, op, speed))
        result["traced_round"] = traced
        result["layers"] = layers.measure(tracer, built, plan,
                                          sum(r["ref_s"] for r in traced) - untraced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
