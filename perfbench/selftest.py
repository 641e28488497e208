"""Quick self-test of the benchmark on the smallest rungs.

    python3 perfbench/selftest.py

Runs every workload once on small inputs (p=13 plus, p=17 minus,
p=5 k=2 plus for the extension-field path, p=3 k=2 for the lemmas),
untraced and traced, through the same child process and the same output
checks as run.py, and checks that each run reports exactly the metrics
BENCHMARK.json lists.  Exits 0 when every check passes, 1 otherwise.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import time  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    if not (run.ROOT / "src" / "quasilee" / "__init__.py").is_file():
        print(f"error: no quasilee sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for name, make in workloads.SELFTEST.items():
        for trace in (0, 1):
            t0 = time.monotonic()
            try:
                r = run.run_workload(make(), seed=1, seconds=0, trace=trace,
                                     deadline=t0 + run.RUN_BUDGET_S)
            except run.BenchError as exc:
                ok = False
                print(f"FAIL {name} trace={trace}: {exc}")
                continue
            metrics = run.report(r, trace)
            if set(metrics) != listed[trace]:
                r["faults"].append(f"metrics {sorted(set(metrics) ^ listed[trace])} "
                                   "differ from BENCHMARK.json")
            good = not r["faults"] and r["failed"] == 0
            ok = ok and good
            print(f"{'PASS' if good else 'FAIL'} {name} trace={trace} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"({time.monotonic() - t0:.1f} s)")
            for fault in r["faults"]:
                print(f"     {fault}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
