"""
Building and exercising a 2-quasi-perfect Lee code
==================================================

End to end: parity-check matrix from the q = 13 circle, coset-leader
table, a corrupted word decoded back, and the census that cross-checks
the decoder against the sumset layers.
"""

import random
from itertools import accumulate

from quasilee import (build_code, coset_leader_table, cumulative_layers,
                      decode, verify_quasi_perfect)

code = build_code(13, 1, "plus")
print("parity-check matrix over F_13:")
print(code.matrix.to_text(), end="")
print(f"n={code.n}  dimension={code.dimension}  codewords={code.codeword_count}")
print(f"error correction t={code.error_correction}  "
      f"covering radius R={code.covering_radius}  verdict={code.verdict}")

# the coset-leader table assigns a minimal-weight error to each of the
# 169 syndromes; its BFS levels, the weight histogram 1/14/98/56, sum to 169
table = coset_leader_table(code.matrix)
print("\nleader weight histogram:", dict(enumerate(table.levels)))

# corrupt a codeword with a Lee-weight-2 error and decode it back
rng = random.Random(42)
codeword = decode(table, [rng.randrange(13) for _ in range(7)]).codeword
error = [0] * 7
error[2], error[5] = 1, 12                      # +1 and -1: Lee weight 2
received = [(c + e) % 13 for c, e in zip(codeword, error)]
result = decode(table, received)
print("\ncodeword: ", list(codeword))
print("received: ", received, " (Lee weight of error:",
      sum(min(e, 13 - e) for e in error), ")")
print("decoded:  ", list(result.codeword), " error:", list(result.error))
assert result.codeword == codeword

# weight-3 errors are still covered (R = 3) but no longer uniquely:
# the decoder returns *some* nearest codeword
heavy = [0] * 7
heavy[0], heavy[1], heavy[3] = 1, 1, 1
got = decode(table, [(c + e) % 13 for c, e in zip(codeword, heavy)])
print("\nweight-3 error decodes to a codeword at Lee distance",
      got.weight, "from the received word")

# two independent routes to the same numbers: BFS census vs sumset layers
layers = cumulative_layers(code.generator)
print("\nsyndrome census by weight:", list(accumulate(table.levels)))
print("cumulative layer sizes:   ", list(layers.sizes))

report = verify_quasi_perfect(code, table)
print("\nquasi-perfect:", report.quasi_perfect,
      " (t, R) =", (report.error_correction, report.covering_radius))
