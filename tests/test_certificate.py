"""Certificate layer tests: norm identity, exact vs grouped sums,
system windows, and the final three-valued comparison."""

import ast
import collections
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from lacuna import certificate as ct
from lacuna import cli
from lacuna import integrals as ig
from lacuna.errors import CertificateError, RangeError, StructureViolation
from lacuna.spectrum import ExceptionKind, PointKind, classify_brute_force, make_spectrum

A5 = make_spectrum(base=5, depth=4)      # {0, +-1, +-5, +-25, +-125}
A4 = make_spectrum(base=4, depth=5)      # {0, +-1, +-4, ..., +-256}
NO_EXC = make_spectrum(lambdas=[0, 1, 10, 100])

# frozen regression anchors (default r_max=4000)
S_PAIR_ONES = 2.096621516760595          # S for f(1) = f(-1) = 1 on A5
MARGIN_PAIR_ONES = 0.5978409167803687


# ---------------------------------------------------------------------------
# coefficient vectors


def test_vector_validation():
    with pytest.raises(RangeError, match="not a spectrum element"):
        ct.CoefficientVector.from_dict(A5, {2: 1.0})
    with pytest.raises(RangeError, match="not finite"):
        ct.CoefficientVector(A5, ((1, complex(math.nan, 0)),))
    f = ct.CoefficientVector.from_dict(A5, {5: 0.0, 1: 2.0, -1: 1.0j})
    assert f.support == (-1, 1)          # zero amplitudes dropped, sorted
    assert f.amp(5) == 0 and f.amp(1) == 2.0
    assert f.mass() == pytest.approx(5.0, rel=1e-15)


def test_constant_vector():
    f = ct.CoefficientVector.constant(make_spectrum(lambdas=[0]), 2.0)
    assert f.support == (0,) and f.amp(0) == 2.0


# ---------------------------------------------------------------------------
# norm expansion


def _grouped_norm6(f):
    # the paper's grouped nine-sum expansion of mass^3: ordered frequency
    # triples split by modulus pattern
    x = {n: abs(z) ** 2 for n, z in f.entries}
    supp = f.support
    x0 = x.get(0, 0.0)

    def xm(n):
        return x.get(n, 0.0)

    grouped = x0**3                                               # 0,0,0
    g_distinct = 0.0
    for u in supp:
        for v in supp:
            if abs(u) == abs(v):
                continue
            for w in supp:
                if abs(w) == abs(u) or abs(w) == abs(v):
                    continue
                g_distinct += x[u] * x[v] * x[w]
    grouped += g_distinct
    for u in supp:
        if u == 0:
            continue
        grouped += x[u] ** 3                                      # n,n,n
        grouped += 3.0 * x[u] ** 2 * x0                           # n,n,0
        grouped += 3.0 * x[u] * x[u] * xm(-u)                     # n,n,-n
        grouped += 3.0 * x[u] * xm(-u) * x0                       # n,-n,0
        grouped += 3.0 * x[u] * x0**2                             # n,0,0
        for v in supp:
            if v == 0 or abs(v) == abs(u):
                continue
            grouped += 3.0 * x[u] ** 2 * x[v]                     # n,n,m
            grouped += 3.0 * x[u] * x[v] * xm(-v)                 # n,m,-m
    return grouped


def test_norm6_examples():
    one = ct.CoefficientVector.from_dict(A5, {0: 1.0})
    assert one.mass() ** 3 == 1.0 and _grouped_norm6(one) == 1.0
    pair = ct.CoefficientVector.from_dict(A5, {1: 1.0, -1: 1.0})
    assert pair.mass() ** 3 == pytest.approx(8.0, rel=1e-15)
    assert _grouped_norm6(pair) == pytest.approx(8.0, rel=1e-15)


def test_norm6_identity_random():
    rng = random.Random(20260819)
    for _ in range(1000):
        size = rng.randint(1, 9)
        f = ct.random_vector(A5 if rng.random() < 0.5 else A4, rng, size=size)
        mass_cubed = f.mass() ** 3
        assert abs(_grouped_norm6(f) - mass_cubed) <= 1e-12 * max(mass_cubed, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=9,
    )
)
def test_norm6_identity_property(amps):
    elements = sorted(A5.elements)[: len(amps)]
    f = ct.CoefficientVector.from_dict(A5, dict(zip(elements, amps)))
    mass_cubed = f.mass() ** 3
    assert abs(_grouped_norm6(f) - mass_cubed) <= 1e-11 * max(mass_cubed, 1.0)


# ---------------------------------------------------------------------------
# basic inequality


def test_basic_inequality_equality_cases():
    assert ct.check_basic_inequality(1.0, 1.0, 5.0)
    # the b = 5 coefficients are dyadic, so equality at r = s = 1 is exact
    assert abs((5 / 8 + 1 / 8 + 1 / 4) - 1.0) <= 1e-15
    assert ct.check_basic_inequality(3.7, 0.0, 2.0)
    assert ct.check_basic_inequality(0.0, 2.5, 1.001)


def test_basic_inequality_random_sweep():
    rng = random.Random(7)
    for b in (1.5, 4.2, 5.0, 6.66, 50.0):
        for _ in range(2000):
            r, s = rng.uniform(0, 10), rng.uniform(0, 10)
            assert ct.check_basic_inequality(r, s, b)
    # exact rational evaluation keeps the r = s diagonal stable
    for b in (1.5, 4.2, 6.66, 50.0):
        for r in (1e-8, 0.3, 1.0, 9.999999999):
            assert ct.check_basic_inequality(r, r, b)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0, max_value=1e3, allow_nan=False),
    st.floats(min_value=0, max_value=1e3, allow_nan=False),
    st.floats(min_value=1.0000001, max_value=1e6, allow_nan=False),
)
def test_basic_inequality_property(r, s, b):
    assert ct.check_basic_inequality(r, s, b)


_DYADIC = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    _DYADIC,
    _DYADIC,
    st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    st.booleans(),
)
@example(1.0, 1.0, 5.0, True)
@example(5e-324, 5e-324, 1.0000000000000002, True)
@example(1.7976931348623157e308, 1.7976931348623157e308, 1.7976931348623157e308, True)
@example(5e-324, 1.7976931348623157e308, 1.0000000000000002, False)
@example(1.7976931348623157e308, 5e-324, 3.0, False)
def test_basic_inequality_matches_fraction_formula(r, s, b, same):
    # r = s is the equality line: there the verdict rests on exact equality
    s = r if same else s
    rq, sq, bq = Fraction(r), Fraction(s), Fraction(b)
    rhs = (bq * rq**4 + sq**4 + (bq - 3) * rq**2 * sq**2) / (2 * bq - 2)
    assert ct.check_basic_inequality(r, s, b) == (rq**3 * sq <= rhs)


def test_basic_inequality_validation():
    with pytest.raises(RangeError, match="must exceed 1"):
        ct.check_basic_inequality(1.0, 1.0, 1.0)
    with pytest.raises(RangeError, match="non-negative"):
        ct.check_basic_inequality(-1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# b window


def test_b_window_endpoints_exact():
    w = ct.feasible_b_interval(7.94)
    assert w.feasible
    assert w.lo_exact == Fraction(397, 97)
    assert w.hi_exact == Fraction(353, 53)
    assert w.lo == pytest.approx(4.0928, abs=5e-5)
    assert w.hi == pytest.approx(6.6604, abs=5e-5)
    assert w.lo < 5.0 < w.hi and w.lo < 6.66 < w.hi


def test_b_window_infeasible():
    w = ct.feasible_b_interval(6.0)          # 3F = 18 kills the quartic row
    assert not w.feasible
    w2 = ct.feasible_b_interval(6.5)         # lo = 19.5/1.5 = 13 > hi
    assert not w2.feasible and w2.lo_exact == Fraction(13)


@pytest.mark.parametrize(
    "spectrum",
    [make_spectrum(base=4, depth=4), make_spectrum(lambdas=[0, 1, 4, 13, 40, 121, 364])],
    ids=["base4-depth4", "wide"],
)
def test_global_rows_refuse_b_outside_the_window(spectrum):
    # with +-1 in the spectrum the rows alone refuse every b the window refuses
    w = ct.feasible_b_interval()
    for b, passed in [
        (w.lo - 1e-6, False),
        (w.lo + 1e-6, True),
        (w.hi - 1e-6, True),
        (w.hi + 1e-6, False),
    ]:
        trivial = ct.check_systems(spectrum, b)[0]
        assert trivial.system_id == "trivial" and trivial.passed is passed, b


# ---------------------------------------------------------------------------
# exact sextic sum


def test_s_exact_zero_support_chain():
    f0 = ct.CoefficientVector.from_dict(A5, {0: 1.0})
    s0 = ct.compute_S_exact(f0)
    direct = ig.i_direct((0,) * 6)
    assert s0.value == pytest.approx(direct.value, rel=1e-15)
    # (2pi)^7 S / ((2pi)^3 norm6) equals the conjectured constant
    chain = (2 * math.pi) ** 7 * s0.value / ((2 * math.pi) ** 3 * f0.mass() ** 3)
    assert chain == pytest.approx(ig.c_opt().value, rel=1e-12)


def test_s_exact_reads_no_classification(monkeypatch):
    # S is defined on any finite support: the spectrum's classification
    # enters the grouped bound and the systems, never S
    rng = random.Random(11)
    vectors = [ct.random_vector(A5, rng, size=7) for _ in range(3)]
    expected = [ct.compute_S_exact(f) for f in vectors]

    def refuse(spectrum):
        raise AssertionError("S consulted the classification")

    monkeypatch.setattr(ct, "_exceptions", refuse)
    for f, want in zip(vectors, expected, strict=True):
        got = ct.compute_S_exact(f)
        assert got.value == want.value and got.error_bound == want.error_bound > 0


def test_s_exact_support_cap():
    big = make_spectrum(base=4, depth=6)
    f = ct.CoefficientVector.constant(big)   # 13 entries
    with pytest.raises(RangeError, match="support size"):
        ct.compute_S_exact(f)


def test_s_exact_regression_pair_ones():
    f = ct.CoefficientVector.from_dict(A5, {1: 1.0, -1: 1.0})
    s = ct.compute_S_exact(f)
    assert s.value == pytest.approx(S_PAIR_ONES, rel=1e-12)


def _s_oracle(f, r_max=4000.0, dr=0.02):
    """Independent route: angular average of |sum fhat(n) J_n e^{in phi}|^6.

    The phi mean is exact for enough equispaced samples (trig polynomial),
    the radial integral is a dense trapezoid on the same truncation.
    """
    supp = f.support
    maxn = max((abs(n) for n in supp), default=0)
    m_angles = max(8, 2 * (6 * maxn + 2))
    r = np.arange(0.0, r_max + dr, dr)
    jn = {n: jv(abs(n), r) * ((-1.0) ** abs(n) if n < 0 else 1.0) for n in supp}
    acc = np.zeros_like(r)
    for k in range(m_angles):
        phi = 2 * math.pi * k / m_angles
        h = np.zeros_like(r, dtype=complex)
        for n in supp:
            h += f.amp(n) * jn[n] * np.exp(1j * n * phi)
        acc += np.abs(h) ** 6
    return float(np.trapezoid(acc / m_angles * r, r))


def test_s_exact_against_angular_oracle():
    rng = random.Random(42)
    for _ in range(2):
        raw = ct.random_vector(A5, rng, size=5)
        f = ct.CoefficientVector.from_dict(
            A5, {n: raw.amp(n) for n in raw.support if abs(n) <= 25}
        )
        if not f.support:
            continue
        s = ct.compute_S_exact(f)
        oracle = _s_oracle(f)
        assert abs(oracle - s.value) <= max(1e-4 * abs(s.value), s.error_bound)
    pair = ct.CoefficientVector.from_dict(A5, {1: 1.0, -1: 1.0})
    assert _s_oracle(pair) == pytest.approx(S_PAIR_ONES, rel=1e-10)


# ---------------------------------------------------------------------------
# grouped upper bound


def test_upper_bound_constant_mode_equality():
    f0 = ct.CoefficientVector.from_dict(A5, {0: 2.0})
    ub = ct.compute_S_upper_bound(f0, ct.CertificateParams())
    s0 = ct.compute_S_exact(f0)
    assert ub.value == pytest.approx(s0.value, rel=1e-15)


def test_upper_bound_requires_eps_for_fired_exception():
    # mass on {1, 5} makes D = 11 = 1+5+5 = ... fire one-distinct terms
    f = ct.CoefficientVector.from_dict(A5, {1: 1.0, 5: 1.0, -1: 1.0})
    with pytest.raises(CertificateError, match="no eps assigned"):
        ct.compute_S_upper_bound(f, ct.CertificateParams())


def test_upper_bound_no_exception_spectrum():
    # structural regression: no exception rows fire, eps map stays empty
    assert all(
        c.kind is not PointKind.EXCEPTION for c in classify_brute_force(NO_EXC)
    )
    params, reports = ct.derive_params(NO_EXC)
    assert params.eps == ()
    assert all(r.passed for r in reports)
    rng = random.Random(3)
    for _ in range(5):
        f = ct.random_vector(NO_EXC, rng, size=5)
        s = ct.compute_S_exact(f)
        ub = ct.compute_S_upper_bound(f, params)
        assert s.value <= ub.value + ub.error_bound + s.error_bound


def test_chain_random_vectors():
    for A in (A5, A4):
        params, _ = ct.derive_params(A)
        rng = random.Random(20260819)
        for t in range(30):
            f = ct.random_vector(A, rng, size=8, adversarial=(t % 3 == 0))
            s = ct.compute_S_exact(f)
            ub = ct.compute_S_upper_bound(f, params)
            assert s.value <= ub.value + ub.error_bound + s.error_bound, (
                A.lambdas,
                t,
            )


def _close(form: float, literal: float) -> bool:
    return abs(form - literal) <= 1e-13 * abs(literal)


def test_forms_match_literal_sums():
    # the literal sums are the oracle; the forms only change summation order
    for A in (A4, A5, NO_EXC):
        params, _ = ct.derive_params(A)
        forms = ct.assemble_forms(A, params, A.elements)
        rng = random.Random(20261018)
        top = min(8, len(A.elements))
        vectors = [ct.CoefficientVector.constant(A, 0.5 - 1.5j)] + [
            ct.random_vector(A, rng, size=rng.randint(1, top), adversarial=(t % 2 == 0))
            for t in range(2 * ct.FORM_BLOCK + 3)   # spans three blocks
        ]
        for f, (s, ub) in zip(vectors, ct.evaluate_forms(forms, vectors), strict=True):
            lit_s = ct.compute_S_exact(f)
            lit_ub = ct.compute_S_upper_bound(f, params)
            assert _close(s.value, lit_s.value) and _close(s.error_bound, lit_s.error_bound)
            assert _close(ub.value, lit_ub.value) and _close(ub.error_bound, lit_ub.error_bound)


def test_forms_on_a_partial_support():
    params, _ = ct.derive_params(A5)
    f = ct.CoefficientVector.from_dict(A5, {1: 1.0, -1: 1.0})
    forms = ct.assemble_forms(A5, params, f.support)
    [(s, ub)] = ct.evaluate_forms(forms, [f])
    assert forms.support == (-1, 1)
    assert _close(s.value, S_PAIR_ONES)
    assert _close(ub.value, ct.compute_S_upper_bound(f, params).value)
    v = ct.verdict_of(s, f)
    assert v.verdict == "holds" and v.margin == pytest.approx(MARGIN_PAIR_ONES, rel=1e-12)


def test_bound_tensor_restricts_to_a_sub_support():
    # an entry sums the same terms in the same order on any support holding
    # its three frequencies, so the restriction keeps every bit
    params, _ = ct.derive_params(A4)
    full = ct.assemble_forms(A4, params, A4.elements)
    sub = ct.assemble_forms(A4, params, (-16, -1, 0, 1, 4, 64))
    cols = np.searchsorted(full.support, sub.support)
    grid = np.ix_(cols, cols, cols)
    assert full.bound_value[grid].tobytes() == sub.bound_value.tobytes()
    assert full.bound_error[grid].tobytes() == sub.bound_error.tobytes()


def test_sums_whose_error_bound_underflows_are_refused():
    # every product of six amplitudes is 1e-360, below the smallest float,
    # so S, the bound and both error bounds would all come back 0.0
    params, _ = ct.derive_params(A5)
    f = ct.CoefficientVector.from_dict(A5, {1: 1e-60, -1: 1e-60})
    forms = ct.assemble_forms(A5, params, f.support)
    for call in (
        lambda: ct.compute_S_exact(f),
        lambda: ct.compute_S_upper_bound(f, params),
        lambda: ct.verify_theorem(f),
        lambda: ct.evaluate_forms(forms, [f]),
    ):
        with pytest.raises(RangeError, match="error bound must be finite and positive"):
            call()


def test_forms_require_eps_when_built():
    with pytest.raises(CertificateError, match="no eps assigned"):
        ct.assemble_forms(A5, ct.CertificateParams(), A5.elements)


def test_b5_coefficient_reduction():
    # at b = 5 the two b rows reduce to the dyadic basic-inequality weights
    b = 5.0
    assert 9 * (b + 1) / (b - 1) == pytest.approx(13.5, abs=0)
    assert 9 * (b - 3) / (b - 1) == pytest.approx(4.5, abs=0)
    assert 5 / (2 * b - 2) == 5 / 8 and 1 / (2 * b - 2) == 1 / 8


def test_system_of_matches_the_subtype_rule():
    # the writing shapes give the system the grouped bound once read off the
    # subtype and the spectrum: one repeat-free writing is S2, or S3 when D
    # lies in 3A; two squared ones are S5 in 3A, S4 in 2A, else "trivial".
    # The systems rely on two facts checked here: every writing sums to its
    # point, and no "trivial" point lies in 2A or 3A
    spectra = [
        make_spectrum(base=base, depth=depth, scale=scale)
        for base in range(4, 10) for depth in range(1, 7) for scale in range(1, 4)
    ] + [
        make_spectrum(lambdas=lams)
        for lams in ([0, 5, 22, 88, 274], [0, 5, 20, 70, 222], [0, 1, 4, 13, 40, 121, 364])
    ]
    seen = collections.Counter()
    for spectrum in spectra:
        for d, (system, point) in ct._exceptions(spectrum).items():
            in_2a = d % 2 == 0 and d // 2 in spectrum
            in_3a = d % 3 == 0 and d // 3 in spectrum
            if point.subtype is ExceptionKind.ONE_DISTINCT:
                rule = "S3" if in_3a else "S2"
            elif in_3a:
                rule = "S5"
            else:
                rule = "S4" if in_2a else "trivial"
            assert ct._system_of(point) == system == rule, (spectrum.lambdas, d)
            assert all(sum(rep) == d for rep in point.reps), (spectrum.lambdas, d)
            assert system != "trivial" or not (in_2a or in_3a), (spectrum.lambdas, d)
            seen[system] += 1
    assert set(seen) == set(ct.SYSTEMS) and sum(seen.values()) > 300


# ---------------------------------------------------------------------------
# F lower bounds


def test_f_lower_bounds_merge():
    # at default precision the interval endpoint sits under the floor
    assert ct.f_lower(1, 1, 0) == 7.94
    assert ct.f_lower(5, 5, 0) > 10.8                    # quadrature beats floor
    assert ct.f_lower(1, 0, 0) == 5.0
    assert ct.f_lower(5, 1, 1) >= 13.2
    assert ct.f_lower(125, 5, 1) >= 21.0                 # 3-separated distinct row
    assert ct.f_lower(0, 0, 0) == 1.0
    # signs and argument order do not matter
    assert ct.f_lower(-1, 0, 1) == ct.f_lower(1, 1, 0) == 7.94
    assert ct.f_lower(1, -125, 5) == ct.f_lower(125, 5, 1)
    assert ct.f_lower(-1, 5, -1) == ct.f_lower(5, 1, 1)
    # past the direct route's order cap each shape keeps its floor alone
    top = ig.MAX_SEXTET_ORDER + 1
    assert ct.f_lower(top, 0, 0) == 5.0
    assert ct.f_lower(top, top, top) == 3.2
    assert ct.f_lower(top, top, 0) == 10.8
    assert ct.f_lower(5 * top, 5 * top, top) == 13.2
    assert ct.f_lower(5 * top, top, 0) == 21.0


def test_f_lower_bounds_excluded_distinct():
    # moduli that are not 3-separated have no recorded floor: the
    # quadrature bound alone, the float f_ratio's lo divides out
    for trip in ((3, 1, 1), (2, 1, 1), (3, 2, 0)):
        assert ct.f_lower(*trip) == ig.f_ratio(*trip).lo, trip
    assert 13.0 < ct.f_lower(3, 2, 0) < 14.0
    # past the cap such a triple is left with F > 0 alone
    assert ct.f_lower(600, 599, 599) == 0.0


def test_member_floors_from_sweep(sweep40):
    # the two member floors hold on the shared 40-order sweep wherever
    # every modulus can belong to one lambda sequence, lambda_{n+1} > 3 lambda_n
    sw = sweep40
    lo, point = min(
        (sw.ratio(p, p, q).lo, (p, q))
        for p in range(1, 41)
        for q in range(1, 41)
        if max(p, q) > 3 * min(p, q)
    )
    assert lo > ct.F_FLOOR_PAIR_MEMBER == 13.2, point
    assert point == (4, 1)  # the tightest row, (4,4,1)
    lo, point = min(
        (sw.ratio(n, m, k).lo, (n, m, k))
        for n in range(1, 41)
        for m in range(1, n)
        for k in range(0, m)
        if n > 3 * m and (m > 3 * k or k == 0)
    )
    assert lo > ct.F_FLOOR_DISTINCT_MEMBER == 21.0, point
    assert point == (7, 2, 0)
    # the pair floor decides a row on every base-4 spectrum: at the
    # default r_max the quadrature interval of F(4,4,1) sits below it
    assert ig.f_ratio(4, 4, 1).lo < ct.F_FLOOR_PAIR_MEMBER
    assert ct.f_lower(4, 4, 1) == ct.F_FLOOR_PAIR_MEMBER


# ---------------------------------------------------------------------------
# systems


def test_systems_raise_nothing_on_the_generator_grid():
    # F's denominator interval straddles zero on some of these lookups,
    # F(512,8,1), F(512,1,0) and F(375,3,0) among them; I > 0 still bounds F
    f = ig.f_ratio(512, 8, 1)
    assert f.hi == math.inf and f.lo > 0
    assert ct.f_lower(512, 8, 1) >= ct.F_FLOOR_DISTINCT_MEMBER
    for base in range(4, 10):
        for depth in range(1, 6):
            for scale in range(1, 4):
                spectrum = make_spectrum(base=base, depth=depth, scale=scale)
                reports = ct.check_systems(spectrum)
                assert [r.system_id for r in reports] == list(ct.SYSTEMS)
    for base, depth, scale in ((8, 4, 1), (8, 5, 1), (5, 4, 3), (5, 5, 3)):
        reports = ct.check_systems(make_spectrum(base=base, depth=depth, scale=scale))
        assert all(r.passed for r in reports), (base, depth, scale)


def test_derive_params_refuses_an_infeasible_system():
    # at b = 4.1 the S4 window of the doubled points +-2 is empty
    spectrum = make_spectrum(base=4, depth=4)
    with pytest.raises(CertificateError, match="system S4 infeasible at exception -2"):
        ct.derive_params(spectrum, 4.1)
    reports = {r.system_id: r for r in ct.check_systems(spectrum, 4.1)}
    assert [i.point for i in reports["S4"].instances if not i.feasible] == [-2, 2]
    assert reports["S4"].tightest_margin == pytest.approx(-0.26507, abs=1e-5)


def test_systems_a4_shapes_and_windows():
    reports = {r.system_id: r for r in ct.check_systems(make_spectrum(base=4, depth=4))}
    assert all(r.passed for r in reports.values())
    s4 = {i.point: i for i in reports["S4"].instances}
    assert set(s4) == {2, -2, 8, -8, 32, -32}
    s3 = {i.point: i for i in reports["S3"].instances}
    assert set(s3) == {3, -3, 12, -12, 48, -48}
    assert not reports["S2"].instances and not reports["S5"].instances
    # quoted window for the smallest doubled point
    assert s4[2].eps_lo < 0.270 and s4[2].eps_hi > 0.289
    # the recorded defaults are inside every matching window
    for inst in s3.values():
        assert inst.eps_lo <= 2.0 <= inst.eps_hi


def test_systems_a5_defaults():
    reports = {r.system_id: r for r in ct.check_systems(A5)}
    s5 = {i.point: i for i in reports["S5"].instances}
    assert set(s5) == {3, -3, 15, -15, 75, -75}
    for inst in s5.values():
        assert inst.eps_lo <= 1.0 <= inst.eps_hi
    assert all(r.passed for r in reports.values())


def test_systems_scaled_s4_window():
    # elements {0,+-2,+-8,+-32}: doubled point 4 pairs moduli {2, 8}
    scaled = make_spectrum(base=4, depth=3, scale=2)
    reports = {r.system_id: r for r in ct.check_systems(scaled)}
    inst = {i.point: i for i in reports["S4"].instances}[4]
    assert inst.eps_lo < 0.110 and inst.eps_hi > 0.490


def test_systems_s2_both_variants():
    # [0,1,5,17]: 11 = 17-5-1 = 5+5+1 gives the nonzero-partner variant
    reports = {r.system_id: r for r in ct.check_systems(make_spectrum(lambdas=[0, 1, 5, 17]))}
    s2 = {i.point: i for i in reports["S2"].instances}
    assert set(s2) == {11, -11}
    assert s2[11].feasible and s2[11].eps_lo <= 2.0 <= s2[11].eps_hi
    # [0,1,5,16]: 10 = 16-5-1 = 5+5+0 gives the zero-partner variant
    reports = {r.system_id: r for r in ct.check_systems(make_spectrum(lambdas=[0, 1, 5, 16]))}
    s2 = {i.point: i for i in reports["S2"].instances}
    assert {10, -10} <= set(s2)
    assert s2[10].feasible and s2[10].eps_lo <= 1.0 <= s2[10].eps_hi
    assert "3F(5,5,0)" in s2[10].description


def test_systems_eps_free_pair_pair():
    # [0,1,5,17]: 7 = 17-5-5 = 5+1+1 needs no eps, lands in the flat rows
    reports = {r.system_id: r for r in ct.check_systems(make_spectrum(lambdas=[0, 1, 5, 17]))}
    flat = [i for i in reports["trivial"].instances if i.point in (7, -7)]
    assert len(flat) == 4 and all(i.feasible for i in flat)


def test_systems_global_row_equality_case():
    # the (1,0,0) row sits exactly on its floor, slack 0 is still a pass
    reports = ct.check_systems(A5)
    trivial = [r for r in reports if r.system_id == "trivial"][0]
    eq_rows = [i for i in trivial.instances if i.description == "15 <= 3F(1,0,0)"]
    assert len(eq_rows) == 1 and eq_rows[0].feasible and eq_rows[0].margin == 0.0


WIDE = make_spectrum(lambdas=[0, 1, 4, 13, 40, 121, 364])


@pytest.mark.parametrize(
    "spectrum, distinct",
    [(A4, 55), (WIDE, 83), (make_spectrum(lambdas=[0, 1, 5, 17]), 19)],
    ids=["base4-depth5", "wide", "0-1-5-17"],
)
def test_systems_read_each_f_triple_once(monkeypatch, spectrum, distinct):
    # one f_lower per distinct sorted triple that a global row or an
    # exception writing names; 0,1,5,17 has eps-free exception rows
    reads = []
    original = ct.f_lower

    def counted(*args):
        reads.append(tuple(sorted(args[:3])))
        return original(*args)

    monkeypatch.setattr(ct, "f_lower", counted)
    ct.check_systems(spectrum)
    assert len(reads) == len(set(reads)) == distinct


@pytest.mark.parametrize("spectrum, rows", [(A4, 60), (WIDE, 89)], ids=["base4-depth5", "wide"])
def test_global_rows_are_templates_that_read_no_f(monkeypatch, spectrum, rows):
    def refuse(*args):
        raise AssertionError("a template read F")

    monkeypatch.setattr(ct, "f_lower", refuse)
    templates = list(ct._global_rows(spectrum, ct.DEFAULT_B))
    p = sum(1 for v in spectrum.lambdas if v > 0)
    assert len(templates) == 4 * p + p * (p - 1) + math.comb(p + 1, 3) == rows
    monkeypatch.undo()
    # the system's global rows are the templates, in order, against F's lower ends
    trivial = ct.check_systems(spectrum)[0].instances[:rows]
    assert [i.description for i in trivial] == [text for text, *_ in templates]
    for inst, (_, mult, moduli, rhs) in zip(trivial, templates):
        assert inst.margin == mult * ct.f_lower(*moduli) - rhs


def test_check_systems_is_the_one_reader_of_f():
    tree = ast.parse(Path(ct.__file__).read_text(encoding="utf-8"))
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "f_lower"
    }
    assert readers == {"check_systems"}


def test_dispatch_rejects_unknown_shape():
    # the table refuses a shape pair outside the known systems, so no such
    # point ever reaches the systems
    from lacuna.spectrum import ClassifiedPoint, ExceptionKind

    bogus = ClassifiedPoint(
        point=9,
        reps=((1, 3, 5), (0, 4, 5)),
        kind=PointKind.EXCEPTION,
        subtype=ExceptionKind.ONE_DISTINCT,
        family_tags=frozenset(),
        boundary_safe=True,
    )
    with pytest.raises(StructureViolation, match="match no known system"):
        ct._system_of(bogus)


def _row_sides(kind, f_lo, e, b):
    # the paper's row of one exception writing, as (left, right) with
    # e = eps^power: mult * F against the flat terms plus the eps share
    return {
        "distinct": (f_lo, 15.0 + 6.0 * e),
        "pair": (3.0 * f_lo, 18.0 + 9.0 * e),
        "zero pair": (3.0 * f_lo, 9.0 * (b + 1.0) / (b - 1.0) + 9.0 + 9.0 * e),
        "cube": (f_lo, 1.0 + e),
    }[kind]


def test_tensor_and_rows_read_one_split():
    # together the two spectra reach all five systems and both kinds of
    # squared writing under S2. At each end of an eps window the writing
    # that sets it holds its row with equality, and doubling one point's
    # eps moves the tensor only at that point's writings: up where the
    # writing carries eps, down where it carries 1/eps
    seen = set()
    for lambdas in ([0, 5, 22, 88, 274], [0, 1, 4, 13, 40, 121, 364]):
        spectrum = make_spectrum(lambdas=lambdas)
        params, reports = ct.derive_params(spectrum)
        eps = dict(params.eps)
        windows = {i.point: i for r in reports for i in r.instances if i.point in eps}
        supp = tuple(sorted(spectrum.elements))
        base, _ = ct._bound_tensor(spectrum, params, supp, ig.DEFAULT_R_MAX)
        for d, (system, point) in ct._exceptions(spectrum).items():
            seen.add(system)
            if system == "trivial":
                assert d not in eps
                continue
            inst = windows[d]
            powers = {}
            for rep in point.reps:
                kind, moduli = ct._kind(rep)
                power = ct._EPS_POWER[system, kind]
                powers[rep] = power
                seen.add((system, kind))
                end = inst.eps_lo if power < 0 else inst.eps_hi
                left, right = _row_sides(kind, ct.f_lower(*moduli), end**power, params.b)
                assert math.isclose(left, right, rel_tol=1e-12), (d, rep)
            assert sorted(powers.values()) == [-1, 1], d
            doubled = ct.CertificateParams.from_mapping(params.b, {**eps, d: 2.0 * eps[d]})
            value, _ = ct._bound_tensor(spectrum, doubled, supp, ig.DEFAULT_R_MAX)
            moved = collections.defaultdict(set)
            for k in zip(*np.nonzero(value - base)):
                rep = tuple(sorted(supp[i] for i in k))
                assert rep in powers, (d, rep)
                moved[rep].add(np.sign(value[k] - base[k]) == powers[rep])
            assert moved == {rep: {True} for rep in point.reps}, d
    assert seen >= set(ct.SYSTEMS) | {("S2", "pair"), ("S2", "zero pair")}


def test_derive_params_midpoints():
    params, reports = ct.derive_params(A5)
    eps = dict(params.eps)
    assert set(eps) == {3, -3, 15, -15, 75, -75}
    windows = {
        i.point: i for r in reports for i in r.instances if i.point in eps
    }
    for d, e in eps.items():
        inst = windows[d]
        assert inst.eps_lo < e < inst.eps_hi
        assert e == pytest.approx(0.5 * (inst.eps_lo + inst.eps_hi), rel=1e-15)


def test_params_validation():
    with pytest.raises(RangeError, match="must exceed 1"):
        ct.CertificateParams(b=1.0)
    with pytest.raises(RangeError, match="eps"):
        ct.CertificateParams.from_mapping(6.66, {3: 0.0})


# ---------------------------------------------------------------------------
# final comparison


def test_verify_theorem_equality_case():
    f0 = ct.CoefficientVector.from_dict(A5, {0: 1.0 + 0.5j})
    v = ct.verify_theorem(f0)
    assert v.verdict == "indeterminate" and v.equality_case
    assert abs(v.margin) <= v.error_budget


def test_verify_theorem_regression_margin():
    f = ct.CoefficientVector.from_dict(A5, {1: 1.0, -1: 1.0})
    v = ct.verify_theorem(f)
    assert v.verdict == "holds" and not v.equality_case
    assert v.margin == pytest.approx(MARGIN_PAIR_ONES, rel=1e-9)
    assert v.margin > v.error_budget


def test_verify_theorem_random_nonconstant():
    rng = random.Random(5)
    for A in (A5, A4):
        for _ in range(15):
            f = ct.random_vector(A, rng, size=rng.randint(2, 8))
            v = ct.verify_theorem(f)
            assert v.verdict == "holds" and v.margin > v.error_budget
            assert not v.equality_case


def test_random_vector_adversarial_targets_exceptions():
    rng = random.Random(9)
    f = ct.random_vector(A5, rng, size=4, adversarial=True)
    hot = set(ct.exception_frequencies(A5))
    assert set(f.support) <= hot


# ---------------------------------------------------------------------------
# the one door to the direct route


def test_certificate_reaches_direct_values_through_i_direct_only():
    # no side door to the memo: the only functions of lacuna.integrals
    # bound in the certificate are i_direct, f_lower, which reads it
    # through f_ratio, and fill_grid_rows, which builds Bessel rows and
    # returns no value
    from_integrals = {
        name
        for name, value in vars(ct).items()
        if callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == ig.__name__
    }
    assert from_integrals == {"f_lower", "fill_grid_rows", "i_direct"}
    assert ct.fill_grid_rows([0, 1], ig.DEFAULT_R_MAX) is None
    assert not hasattr(ct, "_diag")
    tree = ast.parse(Path(ct.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "integrals"
        for alias in node.names
    ]
    assert "i_direct" in imported
    assert not [name for name in imported if name.startswith("_")]


def test_systems_build_every_row_in_one_bessel_pass(monkeypatch):
    # the seven moduli of 0,1,4,13,40,121,364 share one Hankel start per
    # BESSEL_BLOCK chunk of the grid past X0, where one row per modulus
    # would start its own chunks at max(n, X0): 90 starts in all
    sizes = []
    original = ig._hankel_j0_j1

    def counted(x):
        sizes.append(x.size)
        return original(x)

    monkeypatch.setattr(ig, "_hankel_j0_j1", counted)
    monkeypatch.setattr(ig, "_GRID_ROWS", {})
    ct.check_systems(make_spectrum([0, 1, 4, 13, 40, 121, 364]), r_max=4000.0)
    nodes = ig._panel_grid(4000.0)[0]
    past = nodes.size - int(np.searchsorted(nodes, ig.X0, "right"))
    assert len(sizes) == -(-past // ig.BESSEL_BLOCK) == 13
    assert sum(sizes) == past


def test_every_direct_lookup_passes_i_direct(monkeypatch, capsys):
    # wrapped in every lacuna module that binds it, as the benchmark's
    # tracer wraps it: each lookup of the memo is one i_direct call
    calls = 0
    original = ig.i_direct

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "lacuna" or mod_name.startswith("lacuna."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    before = ig._direct_memo.cache_info()
    code = cli.main(["certify", "--base", "4", "--depth", "5", "--trials", "40"])
    after = ig._direct_memo.cache_info()
    capsys.readouterr()
    assert code == 0
    lookups = after.hits + after.misses - before.hits - before.misses
    assert calls == lookups > 1000
