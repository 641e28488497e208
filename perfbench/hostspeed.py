"""Host speed, sampled inside the measured process.

On a shared VM the CPU time of a fixed piece of work drifts by tens of
percent within minutes, as other guests load the host.  While a child runs,
a SIGALRM handler runs fixed probes every TICK_S of wall time and records
their CPU cost.  ``rescale`` turns the CPU time of a window into seconds on
a host where each probe costs its reference cost.

The host has two speeds that move apart:

- ``interpreter``: a pure-Python loop whose data and code fit in the L1
  cache.  It follows the speed of the core, which is what interpreted code
  (the CLI, the BFS, the lemma battery) feels.  Sampled every tick.
- ``memory``: one numpy pass over a 32 MiB block, eight times the L2 cache.
  It follows the memory system that other guests share, which is what
  numpy passes over large arrays feel.  Sampled every eighth tick, as it
  costs about 60 times more.

Each workload gives each probe a weight, the share of its time that
follows that probe.  For every probe, each stretch of the program's CPU
time is divided by the probe's cost in the sample that ends the stretch,
so a window in which the host changes speed is weighted the way the
program's own time is.  The rescaled time is the weighted geometric mean
of these per-probe figures.

The handler interrupts the program between two bytecodes, often straight
after a long numpy call that has filled the caches and the TLB with its
own data.  The first pass of the interpreter loop then pays for the
program's working set: 30 to 50 % more than a warm pass, and more after
memory-heavy calls than after interpreter-bound ones.  So that probe runs
WARMING passes first and records only the pass after them.  The memory
pass needs no warming: its block does not stay in the L2 cache between
samples, whatever the program did.

ITIMER_REAL is used, not ITIMER_PROF: an armed process CPU timer makes
Linux sample CLOCK_PROCESS_CPUTIME_ID at tick resolution.
"""

import math
import signal
import statistics
import time

TICK_S = 0.025
WARMING = 2                 # interpreter passes run before the measured one
MEMORY_BYTES = 32 << 20

# probe: (ticks between samples, reference CPU cost of one measured pass,
# a round figure near its cost on this 2-core VM)
PROBES = {"interpreter": (1, 1e-4), "memory": (8, 8e-3)}


def reference_loop() -> dict:
    """Fixed interpreter work: tuples, integer arithmetic, dict updates."""
    table = {}
    for i in range(400):
        key = (i, i * 7 % 97, i % 13)
        table[key[1]] = table.get(key[1], 0) + key[2]
    return table


class HostSpeed:
    def __init__(self, weights: dict):
        """weights: probe name -> share of the program's time that follows it."""
        if set(weights) - set(PROBES) or not math.isclose(sum(weights.values()), 1):
            raise ValueError(f"bad probe weights {weights}")
        self.weights = weights
        self.block = None
        if "memory" in weights:
            import numpy as np
            self.block = np.ones(MEMORY_BYTES // 8, dtype=np.int64)
        self.ticks = 0
        # (process CPU time when taken, CPU cost of the whole sample,
        #  {probe: CPU cost of its measured pass})
        self.samples = []

    def _pass(self, probe: str) -> float:
        if probe == "memory":
            c0 = time.process_time()
            self.block.sum()
            return time.process_time() - c0
        for _ in range(WARMING):
            reference_loop()
        c0 = time.process_time()
        reference_loop()
        return time.process_time() - c0

    def _sample(self, signum=None, frame=None):
        c0 = time.process_time()
        costs = {probe: self._pass(probe) for probe in self.weights
                 if self.ticks % PROBES[probe][0] == 0}
        self.ticks += 1
        self.samples.append((c0, time.process_time() - c0, costs))

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def resident_mib(self) -> float:
        """Memory the sampler itself keeps resident."""
        return 0.0 if self.block is None else self.block.nbytes / 2 ** 20

    def _inside(self, c0: float, c1: float) -> list:
        return [s for s in self.samples if c0 <= s[0] < c1]

    def own(self, c0: float, c1: float) -> float:
        """The sampler's own CPU time between process times c0 and c1."""
        return sum(spent for _, spent, _ in self._inside(c0, c1))

    def probe_cost(self, probe: str, c0: float, c1: float) -> float:
        """Median cost of the probe's measured pass between process times c0
        and c1; a window that holds no such sample uses every one so far."""
        costs = [s[2][probe] for s in self._inside(c0, c1) if probe in s[2]]
        return statistics.median(costs or [s[2][probe] for s in self.samples
                                           if probe in s[2]])

    def _rescale_one(self, probe: str, c0: float, c1: float) -> float:
        reference_s = PROBES[probe][1]
        total, prev, pending, last = 0.0, c0, 0.0, None
        for at, spent, costs in self._inside(c0, c1):
            pending += at - prev
            prev = at + spent
            if probe in costs:
                last = costs[probe]
                total += pending * reference_s / last
                pending = 0.0
        pending += max(c1 - prev, 0.0)
        if last is None:
            last = self.probe_cost(probe, c0, c1)
        return total + pending * reference_s / last

    def rescale(self, c0: float, c1: float) -> float:
        """CPU seconds between process times c0 and c1, less the sampler's
        own, at reference host speed."""
        return math.prod(self._rescale_one(probe, c0, c1) ** w
                         for probe, w in self.weights.items())
