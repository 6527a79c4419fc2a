"""Acceptance gate: nine criteria, one test (and one -v line) each.

Criterion 5's lower b-endpoint clause is recorded as 4.2 but the exact
window derived from the two global rows at floor 7.94 is
[397/97, 353/53] = [4.0928..., 6.6603...]; 4.2 is an interior point of
that window, not its endpoint. The clause is kept as stated and marked
strict-xfail so the discrepancy stays visible without faking a pass.
"""

import math
import random
import time

import numpy as np
import pytest

from lacuna import bessel
from lacuna import certificate as ct
from lacuna import integrals as ig
from lacuna import spectrum as sp

SEED = 20260819


@pytest.fixture(scope="module")
def a4():
    return sp.make_spectrum(base=4, depth=5)


@pytest.fixture(scope="module")
def a5():
    return sp.make_spectrum(base=5, depth=4)


# ---------------------------------------------------------------------------


def test_criterion_1_quadrature_table_gap(sweep40):
    start = time.monotonic()
    table = ig.build_table(40)
    assert sweep40.error_bound <= 1.0e-5, "oracle error budget exceeded"
    gap_min, gap_max, argmin = math.inf, -math.inf, None
    for k in range(41):
        for m in range(k, 41):
            for n in range(m, 41):
                tilde = ig.i_tilde(k, m, n, table)
                gap = sweep40.value(k, m, n) - tilde.value
                if gap < gap_min:
                    gap_min, argmin = gap, (k, m, n)
                gap_max = max(gap_max, gap)
    elapsed = time.monotonic() - start
    assert gap_min > 0.0, f"gap not positive at {argmin}: {gap_min:.3e}"
    # positivity survives quadrature error: the truncated direct value
    # only discards a non-negative integrand, so gap > quad_diff certifies
    assert gap_min > sweep40.quad_diff
    assert gap_max < 1.0e-2
    assert elapsed <= 600.0
    print(
        f"criterion 1 PASS: gap in [{gap_min:.3e}, {gap_max:.3e}] over 12341 "
        f"triples, oracle error {sweep40.error_bound:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_equality_ratio():
    rv = ig.f_ratio(1, 0, 0)
    assert abs(rv.value - 5.0) <= 2.0e-2
    print(f"criterion 2 PASS: F(1,0,0) = {rv.value!r}, |dev| = {abs(rv.value - 5):.2e}")


def test_criterion_3_threshold_table(sweep40):
    def lo(k, m, n):
        return sweep40.ratio(k, m, n).lo

    worst = math.inf
    for n in range(1, 21):
        assert lo(n, n, 0) > 7.94, (n, n, 0)
        worst = min(worst, lo(n, n, 0) - 7.94)
    for n in range(3, 22):
        assert lo(n, n, 0) > 10.8, (n, n, 0)
    for n in range(1, 41):
        assert lo(n, n, n) > 3.2, (n, n, n)
    for n in range(1, 31):
        for m in range(1, 31):
            if n != m and (n, m) != (1, 2):
                assert lo(n, n, m) > 10.0, (n, n, m)
    for n in range(1, 31):
        for m in range(n):
            for k in range(m):
                if (n, m, k) != (3, 2, 0):
                    assert lo(n, m, k) > 18.0, (n, m, k)
    # the two excluded triples genuinely sit below their family lines
    assert lo(1, 1, 2) < 10.0 and lo(3, 2, 0) < 18.0
    print(f"criterion 3 PASS: all rows clear, tightest margin {worst:.4f} above 7.94")


def test_criterion_4_exception_classification():
    start = time.monotonic()

    def match(spectrum):
        brute = {
            (p.point, p.reps, p.subtype)
            for p in sp.classify_brute_force(spectrum)
            if p.kind is sp.PointKind.EXCEPTION and p.boundary_safe
        }
        equations = {
            (p.point, p.reps, p.subtype)
            for p in sp.exceptions_from_equations(spectrum)
            if p.boundary_safe
        }
        assert brute == equations, spectrum.lambdas
        for p in sp.classify_brute_force(spectrum):
            if p.kind is sp.PointKind.EXCEPTION:
                assert len(p.reps) == 2, (spectrum.lambdas, p.point)
                assert any(sp.has_repeat(r) for r in p.reps), (spectrum.lambdas, p.point)
        return len(brute)

    checked = 0
    for base in (4, 5):
        for depth in range(1, 7):
            match(sp.make_spectrum(base=base, depth=depth))
            checked += 1
    for lams in (
        [0, 1, 10, 100],
        [0, 1, 5, 17],
        [0, 1, 5, 16],
        [0, 2, 8, 32],
        [0, 1, 4, 13, 44],
        [0, 3, 11, 40],
        [0, 1, 7, 25, 90],
        [0, 2, 7, 29],
    ):
        match(sp.make_spectrum(lams))
        checked += 1
    rng = random.Random(SEED)
    for _ in range(50):
        lams = [0, rng.randint(1, 9)]
        for _ in range(rng.randint(0, 5)):
            lams.append(3 * lams[-1] + rng.randint(1, max(2, lams[-1])))
        match(sp.make_spectrum(lams))
        checked += 1

    exc4 = sorted(
        p.point
        for p in sp.classify_brute_force(sp.make_spectrum(base=4, depth=6))
        if p.kind is sp.PointKind.EXCEPTION
    )
    assert exc4 == sorted(
        s * c * 4**n for s in (1, -1) for c in (2, 3) for n in range(5)
    )
    exc5 = sorted(
        p.point
        for p in sp.classify_brute_force(sp.make_spectrum(base=5, depth=6))
        if p.kind is sp.PointKind.EXCEPTION
    )
    assert exc5 == sorted(s * 3 * 5**n for s in (1, -1) for n in range(5))
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(f"criterion 4 PASS: {checked} spectra cross-checked in {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "exact lower endpoint is 397/97 = 4.0928 at floor 7.94; the recorded "
        "4.2 is an interior point of the feasible window, not its endpoint"
    ),
)
def test_criterion_5_b_window_lower_endpoint():
    window = ct.feasible_b_interval(7.94)
    assert round(window.lo, 3) == 4.200


def test_criterion_5_b_window_upper_endpoint():
    window = ct.feasible_b_interval(7.94)
    assert round(window.hi, 3) == 6.660
    assert window.lo < 4.2 < window.hi  # the recorded point is feasible
    print(
        f"criterion 5 PASS (upper): window [{window.lo:.4f}, {window.hi:.4f}], "
        f"upper endpoint matches 6.6604 to 3 decimals"
    )


def test_criterion_5_eps_windows():
    # |n1| = 1: doubled point 2 in the base-4 truncation
    reports = {r.system_id: r for r in ct.check_systems(sp.make_spectrum(base=4, depth=4))}
    inst1 = {i.point: i for i in reports["S4"].instances}[2]
    assert inst1.eps_lo < 0.270 and inst1.eps_hi > 0.289
    # |n1| = 2: doubled point 4 in the scaled truncation {0,+-2,+-8,+-32}
    reports = {
        r.system_id: r
        for r in ct.check_systems(sp.make_spectrum(base=4, depth=3, scale=2))
    }
    inst2 = {i.point: i for i in reports["S4"].instances}[4]
    assert inst2.eps_lo < 0.110 and inst2.eps_hi > 0.490
    print(
        f"criterion 5 PASS (eps): ({inst1.eps_lo:.4f}, {inst1.eps_hi:.4f}) contains "
        f"(0.270, 0.289); ({inst2.eps_lo:.4f}, {inst2.eps_hi:.4f}) contains (0.110, 0.490)"
    )


def test_criterion_6_derivation_chain(a4, a5):
    rng = random.Random(SEED + 6)
    violations = 0
    worst = math.inf
    for spectrum in (a4, a5):
        params, _ = ct.derive_params(spectrum)
        for t in range(250):
            size = rng.randint(1, 9)
            vec = ct.random_vector(spectrum, rng, size=size, adversarial=(t % 3 == 0))
            s = ct.compute_S_exact(vec)
            ub = ct.compute_S_upper_bound(vec, params)
            slack = ub.value + ub.error_bound + s.error_bound - s.value
            worst = min(worst, slack / max(abs(s.value), 1e-300))
            if slack < 0:
                violations += 1
    assert violations == 0
    print(f"criterion 6 PASS: 500 vectors, 0 violations, tightest relative slack {worst:.3f}")


def test_criterion_7_headline_inequality(a4, a5):
    rng = random.Random(SEED + 7)
    worst = math.inf
    for spectrum in (a4, a5):
        for _ in range(250):
            vec = ct.random_vector(spectrum, rng, size=rng.randint(2, 9))
            v = ct.verify_theorem(vec)
            assert v.verdict == "holds", vec.support
            assert v.margin > v.error_budget
            assert not v.equality_case
            worst = min(worst, v.margin - v.error_budget)
    for z in (1.0, 0.3 - 1.2j):
        v0 = ct.verify_theorem(ct.CoefficientVector.from_dict(a5, {0: z}))
        assert v0.equality_case and v0.verdict != "fails"
        assert abs(v0.margin) <= v0.error_budget
    print(
        f"criterion 7 PASS: 500 nonconstant vectors hold "
        f"(min margin-budget {worst:.3e}); constant mode reports equality"
    )


def test_criterion_8_basic_inequality():
    rng = random.Random(SEED + 8)
    per_b = 100_000 // 5
    for b in (1.5, 4.2, 5.0, 6.66, 50.0):
        for _ in range(per_b):
            assert ct.check_basic_inequality(rng.uniform(0, 10), rng.uniform(0, 10), b)
    assert ct.check_basic_inequality(1.0, 1.0, 5.0)
    assert abs((5 / 8) * 1 + (1 / 8) * 1 + (1 / 4) * 1 - 1.0) <= 1.0e-15
    print("criterion 8 PASS: 100000 samples true; b=5 equality exact at r=s=1")


def test_criterion_9_bessel_invariants():
    rng = random.Random(SEED + 9)
    points = [(rng.randint(-1200, 1200), rng.uniform(0.0, 1.0e4)) for _ in range(1000)]
    for n, x in points:
        v = bessel.besselj(n, x)
        assert bessel.besselj(-n, x) == (-1.0) ** (abs(n) % 2) * v  # bitwise symmetry
        if 1 <= abs(n) <= 1199 and x >= 1.0e-3:
            m = abs(n)
            jm, jp = bessel.besselj(m - 1, x), bessel.besselj(m + 1, x)
            mid = (2.0 * m / x) * bessel.besselj(m, x)
            scale = max(abs(jm), abs(mid), abs(jp))
            assert abs(jm + jp - mid) <= 1.0e-9 * scale + (2.0 + 2.0 * m / x) * 1.0e-12
    # the square-sum identity needs orders up to ~x + 200, so its x range
    # is capped by the order box
    for x in (0.5, 10.0, 777.7, 999.5):
        b = bessel.besselj_batch(int(x) + 200, x)
        assert b[0] ** 2 + 2.0 * np.sum(b[1:] ** 2) == pytest.approx(1.0, abs=1.0e-12)
    seq = bessel.j1_zeros(60)
    assert bessel.sign_change_certificate(seq)
    assert np.all(np.abs([bessel.besselj(1, z) for z in seq[1:]]) <= bessel.ZERO_TOL)
    print("criterion 9 PASS: symmetry/recurrence on 1000 points; normalization; zeros certified")
