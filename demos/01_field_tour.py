"""
A tour of the finite-field layer
================================

Builds F_13 and F_9, walks through traces, quadratic characters and the
two exponential sums (quadratic Gauss sums and Kloosterman sums) that
later control the Cayley spectra.
"""

from quasilee import (QuadExt, gauss_quadratic_sum, kloosterman, make_field,
                      residue_class_mod12)

# a prime field: elements are just 0..12
f13 = make_field(13)
print("F_13:", f13.q, "elements, nonsquare =", f13.nonsquare)
print("squares mod 13:", sorted({f13.mul(a, a) for a in range(1, 13)}))

# an extension field: elements are indices a0 + 3*a1 over the modulus
f9 = make_field(3, 2)
print("\nF_9 modulus coefficients:", f9.modulus)
for a in range(9):
    print(f"  element {a} = {f9.coeffs(a)}  trace {f9.trace(a)}  "
          f"eta {f9.quad_character(a):+d}")

# the degree-2 extension on top of a base field carries the norm map;
# every nonzero norm value is hit exactly q+1 times
ext = QuadExt(f13)
fibers = {}
for z in range(1, 169):
    fibers.setdefault(ext.norm(z), []).append(z)
print("\nnorm fiber sizes over F_13:", sorted({len(v) for v in fibers.values()}))

# quadratic Gauss sums have an exact closed form; the library checks it
# on every call and raises VerificationError on a mismatch
g = gauss_quadratic_sum(f13, 1, 0)
print("\nGauss sum sum_x zeta^(x^2) over F_13 =", complex(round(g.re, 12), round(g.im, 12)))

# Kloosterman sums are real and Hasse-Weil bounded: |K(a,b)| <= 2*sqrt(q)
print("K_13(1, b) for b = 1..6:",
      [round(kloosterman(f13, 1, b), 6) for b in range(1, 7)])

# whether -3 is a square mod p only depends on p mod 12
print("\np mod 12 residue classes:")
for p in (5, 7, 11, 13, 17, 19, 23):
    rep = residue_class_mod12(p)
    print(f"  p={p:3d}  p%12={rep.p_mod_12:2d}  -3 square: {rep.minus3_square}")
