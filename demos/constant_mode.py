"""The constant mode saturates the inequality.

Walks the identity chain for a vector supported on the zero frequency:
the exact sextic sum collapses to |f(0)|^6 * I(0,...,0), the sixth
power of the norm collapses to |f(0)|^6, and the ratio of the two
scaled sides reproduces the conjectured sharp constant. The final
comparison lands within the error budget of equality and is reported
as the equality case rather than a strict win.
"""

import math

from lacuna import certificate as ct
from lacuna import integrals as ig
from lacuna import spectrum as sp

A = sp.make_spectrum(lambdas=[0])
f = ct.CoefficientVector.constant(A, 2.0 - 1.0j)

s = ct.compute_S_exact(f)
mass_cubed = f.mass() ** 3
copt = ig.c_opt()

print(f"support          : {f.support}")
print(f"S (exact)        : {s.value!r} +- {s.error_bound:.2e}")
print(f"||f||_2^6        : {mass_cubed!r}")

chain = (2 * math.pi) ** 7 * s.value / ((2 * math.pi) ** 3 * mass_cubed)
print(f"(2pi)^7 S / ((2pi)^3 ||f||^6) = {chain!r}")
print(f"c_opt                         = {copt.value!r} +- {copt.error_bound:.2e}")
print(f"relative deviation            = {abs(chain - copt.value) / copt.value:.2e}")

v = ct.verify_theorem(f)
print(f"verdict          : {v.verdict} (equality case: {v.equality_case})")
print(f"margin vs budget : {v.margin:.3e} vs {v.error_budget:.3e}")
