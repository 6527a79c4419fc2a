"""End-to-end certificate run on the base-5 lacunary truncation.

Classifies every attainable triple sum, shows the exception points and
their two writings, solves the per-exception eps windows against the
verified F lower bounds, and then stress-tests the grouped bound and
the final comparison on a handful of random coefficient vectors.
"""

import random

from lacuna import certificate as ct
from lacuna import integrals as ig
from lacuna import spectrum as sp

A = sp.make_spectrum(base=5, depth=4)
print(f"spectrum: {list(A.lambdas)}")
print(f"elements: {sorted(A.elements)}")

print("\nexception points (exactly two essentially different writings):")
for p in sp.classify_brute_force(A):
    if p.kind is sp.PointKind.EXCEPTION:
        reps = "  =  ".join(" + ".join(f"{v:d}" for v in r) for r in p.reps)
        print(f"  D = {p.point:4d}  [{p.subtype.value:11s}]  {reps}")

window = ct.feasible_b_interval()  # at F(1,1,0)'s floor in the table
print(f"\npaper's b window at F(1,1,0) >= {ig.F_FLOOR_PAIR0:g}: "
      f"[{window.lo:.4f}, {window.hi:.4f}]"
      f"  (exact {window.lo_exact}, {window.hi_exact})")

params, reports = ct.derive_params(A)
print(f"b = {params.b}")
for report in reports:
    if not report.instances:
        continue
    print(f"system {report.system_id}: {len(report.instances)} rows, "
          f"tightest margin {report.tightest_margin:.4f}")
for d, eps in params.eps:
    print(f"  eps[{d:4d}] = {eps:.4f}")

print("\nrandom trials (grouped bound and final comparison):")
rng = random.Random(7)
for i in range(5):
    f = ct.random_vector(A, rng, adversarial=(i % 2 == 0))
    s = ct.compute_S_exact(f)
    ub = ct.compute_S_upper_bound(f, params)
    v = ct.verify_theorem(f)
    print(f"  trial {i}: support {len(f.support)}, "
          f"S = {s.value:10.3f} <= bound {ub.value:10.3f}; "
          f"{v.verdict} with margin {v.margin:.3f} > budget {v.error_budget:.1e}")
