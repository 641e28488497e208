"""
A tour of the finite-field layer
================================

Builds F_13 and F_9, walks through traces, quadratic characters and the
two exponential sums (quadratic Gauss sums and Kloosterman sums) that
later control the Cayley spectra.
"""

import numpy as np

from quasilee import (CharacterSumValue, QuadExt, kloosterman, make_field,
                      residue_class_mod12)
from quasilee.fields import index_digits, trace_counts

# a prime field: elements are just 0..12
f13 = make_field(13)
print("F_13:", f13.q, "elements, nonsquare =", f13.nonsquare)
print("squares mod 13:", sorted({f13.mul(a, a) for a in range(1, 13)}))

# an extension field: elements are indices a0 + 3*a1 over the modulus,
# with the coefficients (a0, a1) as their base-3 digits
f9 = make_field(3, 2)
print("\nF_9 modulus coefficients:", f9.modulus)
for a in range(9):
    print(f"  element {a} = {index_digits(a, 3, 2)}  "
          f"trace {int(f9.trace_table[a])}  eta {f9.quad_character(a):+d}")

# the degree-2 extension on top of a base field carries the norm map;
# every nonzero norm value is hit exactly q+1 times
ext = QuadExt(f13)
fibers = {}
for z in range(1, 169):
    fibers.setdefault(ext.norm(z), []).append(z)
print("\nnorm fiber sizes over F_13:", sorted({len(v) for v in fibers.values()}))

# a quadratic Gauss sum is folded from the exact counts of its exponents,
# the traces of x**2; the lemma battery checks every one against its
# closed form
x = np.arange(13)
g = CharacterSumValue.from_counts(13, trace_counts(f13, f13.mul(x, x)))
print("\nGauss sum sum_x zeta^(x^2) over F_13 =", complex(round(g.re, 12), round(g.im, 12)))

# Kloosterman sums are real and Hasse-Weil bounded: |K(a,b)| <= 2*sqrt(q)
print("K_13(1, b) for b = 1..6:",
      [round(kloosterman(f13, 1, b), 6) for b in range(1, 7)])

# whether -3 is a square mod p only depends on p mod 12
print("\np mod 12 residue classes:")
for p in (5, 7, 11, 13, 17, 19, 23):
    rep = residue_class_mod12(p)
    print(f"  p={p:3d}  p%12={rep.p_mod_12:2d}  -3 square: {rep.minus3_square}")
