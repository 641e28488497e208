"""
Cayley spectra and the Ramanujan bound
======================================

The Cayley graph on F_{q^2} with circle or hyperbola connection set has
eigenvalues given by additive character sums.  For the circle these are
Kloosterman values in disguise, which pins every nontrivial eigenvalue
inside the Ramanujan window 2*sqrt(degree - 1).
"""

import numpy as np

from quasilee import (QuadExt, full_spectrum, generator_set, kloosterman,
                      make_field)

print("family   q  degree  max|lambda|   2*sqrt(deg-1)  class")
for p, k, family in [(5, 1, "plus"), (7, 1, "plus"), (3, 2, "plus"),
                     (11, 1, "plus"), (13, 1, "plus"),
                     (13, 1, "minus"), (23, 1, "minus")]:
    gen = generator_set(make_field(p, k), family)
    rep = full_spectrum(gen)
    print(f"{family:5s} {p ** k:4d} {gen.degree:6d}  {rep.max_nontrivial_abs:11.6f}"
          f"  {rep.ramanujan_bound:13.6f}  {rep.classification}")

# each eigenvalue of the circle graph is minus a Kloosterman sum
# evaluated at the character's norm, so eigenvalues are constant along
# norm classes: the report keeps one per class, and a character's class
# is its norm
base = make_field(13)
ext = QuadExt(base)
gen = generator_set(base, "plus")
rep = full_spectrum(gen)
print("\neigenvalue vs -K(1, norm) over F_169:")
shown = set()
for alpha in range(1, 169):
    nrm = ext.norm(alpha)
    if nrm in shown:
        continue
    shown.add(nrm)
    lam = float(rep.class_eigenvalues[nrm])
    print(f"  norm {nrm:2d}: lambda = {lam:10.6f}   -K = {-kloosterman(base, 1, nrm):10.6f}")

# the spectrum is highly degenerate: only a handful of distinct values
hist = rep.histogram()
print("\ndistinct eigenvalues:", len(hist))
for val, count in sorted(hist.items()):
    print(f"  {val:10.6f}  x{count}")

# the trivial eigenvalue (the degree) appears once, so the graph is connected
assert np.isclose(max(hist), gen.degree)
print("\nconnected:", rep.connected)
