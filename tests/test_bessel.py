"""Tests for lacuna.bessel.

Frozen reference values were computed offline with mpmath at 40 significant
digits (mp.besselj / mp.besseljzero), independent of both this package and
scipy. They are embedded as literals so the suite needs no mpmath at runtime.
"""
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import bessel
from lacuna.bessel import (
    MAX_ARG,
    MAX_ORDER,
    MAX_ZEROS,
    TINY_ARG,
    ZERO_TOL,
    _mcmahon_j1,
    _miller,
    _miller_lanes,
    besselj,
    besselj_batch,
    j1_zeros,
    sign_change_certificate,
)
from lacuna.errors import RangeError, ZeroFindingError

# (n, x, J_n(x) from mpmath at 40 digits)
FROZEN = [
    (0, 0.5, 0.9384698072408129042284),
    (1, 0.5, 0.242268457674873886384),
    (5, 0.5, 0.000008053627241357474085978),
    (0, 2.0, 0.2238907791412356680518),
    (1, 2.0, 0.5767248077568733872024),
    (8, 2.0, 0.00002217955228792590408775),
    (0, 8.0, 0.1716508071375539060909),
    (3, 8.0, -0.2911322070659522493791),
    (0, 12.0, 0.04768931079683353662381),
    (1, 12.0, -0.2234471044906276123677),
    (11, 12.0, 0.2704124825509644840099),
    (0, 13.0, 0.2069261023770678109966),
    (2, 25.0, -0.1062948032423813085456),
    (40, 30.0, 0.0003612023608896585308902),
    (7, 100.0, 0.07017269098721271992139),
    (0, 1000.0, 0.02478668615242017456133),
    (40, 1047.5, -0.005930421338226468818362),
    (532, 1047.5, -0.02210509414843259999568),
    (200, 150.0, 8.057702198396853796472e-14),
    (1200, 400.0, 0.0),  # true value 5.76e-430 underflows double precision
    (1200, 9999.0, -0.0005334309786476491738494),
    (0, 10000.0, -0.007096160353388801477265),
    (3, 9999.5, -0.006601480091277954564823),
    (100, 51.0, 6.185636459689929844682e-21),
    (60, 12.5, 3.573234066996868740281e-35),
    (25, 12.0, 4.4184178792297717459e-7),
]

# (r, r-th positive zero of J_1 from mpmath besseljzero at 40 digits)
J1_ZEROS_FROZEN = [
    (1, 3.831705970207512315614),
    (2, 7.015586669815618753537),
    (3, 10.17346813506272207719),
    (4, 13.32369193631422303239),
    (5, 16.47063005087763281255),
    (10, 32.18967991097440362662),
    (100, 314.9434728377671624581),
    (1000, 3142.377932416818216485),
]


@pytest.mark.parametrize("n,x,expected", FROZEN)
def test_frozen_anchor(n, x, expected):
    assert besselj(n, x) == pytest.approx(expected, abs=1.0e-12)


def test_scipy_cross_check():
    # independent implementation, dense grid from small x to the box's edge
    rng = np.random.default_rng(20260819)
    xs = np.concatenate([rng.uniform(0.01, 30.0, 40), rng.uniform(30.0, 10000.0, 40)])
    ns = rng.integers(0, 200, xs.size)
    for n, x in zip(ns, xs):
        ours = besselj(int(n), float(x))
        ref = scipy.special.jv(int(n), float(x))
        assert ours == pytest.approx(ref, abs=5.0e-12)


def test_negative_order_is_bitwise_symmetric():
    for n in (1, 2, 7, 40, 533):
        for x in np.linspace(0.0, 40.0, 200):
            pos = besselj(n, float(x))
            neg = besselj(-n, float(x))
            expect = -pos if n % 2 else pos
            assert neg == expect  # exact, sign flip only


def test_x_zero_special_case():
    assert besselj(0, 0.0) == 1.0
    assert besselj(3, 0.0) == 0.0
    assert besselj(-1, 0.0) == 0.0
    b = besselj_batch(10, 0.0)
    assert b[0] == 1.0 and not b[1:].any()


def test_batch_matches_scipy():
    for x in (0.5, 7.0, 12.0, 13.0, 250.0, 1047.5):
        b = besselj_batch(540, x)
        for k in (0, 1, 3, 17, 250, 540):
            assert b[k] == pytest.approx(scipy.special.jv(k, x), abs=1.0e-12)


def test_scalar_is_bitwise_batch_entry():
    # one evaluation path: a scalar value is the sign times an entry of the
    # batch row, below TINY_ARG, at small x and past x = n alike
    cases = (
        (0, 0.0), (1, 5.0e-324), (2, 1.0e-150), (0, 0.5), (1, 7.0), (40, 20.0),
        (532, 100.0), (1200, 400.0), (1200, 1.0e-3), (0, 12.5), (1, 13.0),
        (5, 250.0), (40, 1047.5), (532, 1047.5), (1200, 9999.0),
    )
    for n, x in cases:
        for order, sign in ((n, 1.0), (-n, -1.0 if n % 2 else 1.0)):
            got, want = besselj(order, x), sign * besselj_batch(n, x)[n]
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (order, x)


@pytest.mark.parametrize("x", [5.0e-324, 1.0e-200, 1.0e-150, TINY_ARG / 2])
def test_j1_below_tiny_arg_is_half_x(x):
    # J_1(x) = x/2 (1 - x^2/8 + ...) rounds to x/2 for x < TINY_ARG
    assert besselj(1, x) == 0.5 * x
    assert besselj(0, x) == 1.0 and besselj(2, x) == 0.0


# x below and above x = n/2 and at 12, for the array entry points
ARRAY_XS = (0.0, 0.5, 7.25, 11.999, 12.0, 13.0, 250.0, 1047.5, 9999.0)


@pytest.mark.parametrize("n_max", [0, 1, 40, 532, 1200])
def test_array_batch_is_bitwise_float_calls(n_max):
    xs = np.array(ARRAY_XS + (n_max / 2, n_max / 2 + 0.5, 1047.5))  # one x twice
    rows = besselj_batch(n_max, xs)
    assert rows.shape == (xs.size, n_max + 1) and rows.dtype == np.float64
    for x, row in zip(xs, rows):
        assert np.array_equal(row, besselj_batch(n_max, float(x)))


@pytest.mark.parametrize("n", [0, 1, -1, 2, 7, -7, 40, -41, 532, 1200, -1200])
def test_array_besselj_is_bitwise_float_calls(n):
    xs = np.array(ARRAY_XS + (abs(n) / 2, abs(n) / 2 + 0.5))
    got = besselj(n, xs)
    want = np.array([besselj(n, float(x)) for x in xs])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros too


# x on [1e-100, 1e4].  Below 1 a lane passes the rescale threshold every few
# steps and is scaled at its block's end; below 1e-3 the blocks shrink, to
# one step below about 1e-44, where p grows past 2**155 in a step
LANE_X = st.one_of(
    st.floats(min_value=1.0e-3, max_value=1.0, exclude_min=True),
    st.floats(min_value=1.0e-3, max_value=MAX_ARG, exclude_min=True),
    st.floats(min_value=-100.0, max_value=-3.0).map(lambda e: 10.0**e),
)


@settings(max_examples=20, deadline=None)
@given(n_max=st.sampled_from([0, 1, 40, 532, 1200]), data=st.data())
def test_lane_pass_is_bitwise_one_x_pass(n_max, data):
    lanes = data.draw(st.integers(min_value=1, max_value=300))
    xs = data.draw(st.lists(LANE_X, min_size=(lanes + 1) // 2, max_size=lanes))
    more = lanes - len(xs)
    xs += data.draw(st.lists(st.sampled_from(xs), min_size=more, max_size=more))  # duplicates
    rows = _miller_lanes(n_max, np.array(xs))
    assert rows.shape == (len(xs), n_max + 1)
    one_x = {x: _miller(n_max, x).tobytes() for x in set(xs)}
    for x, row in zip(xs, rows):
        assert row.tobytes() == one_x[x]


def test_rescale_is_exact_and_keeps_squares_finite():
    # scaling by a power of two is exact, so a lane may take its rescale at
    # its block's end; a block's squares stay finite, and above TINY_ARG one
    # rescale per step brings p back under the threshold
    for v in (bessel._RESCALE, bessel._SHRINK):
        assert math.frexp(v)[0] == 0.5
    assert math.isfinite(bessel._RESCALE**2 * 2.0 ** (2 * bessel._GROWTH_BITS))
    assert 2.0**bessel._GROWTH_BITS < 1.0 / bessel._SHRINK
    n_start = MAX_ORDER + 1 + bessel.START_OFFSET  # for x <= 1
    assert 2.0 * n_start / TINY_ARG < 1.0 / bessel._SHRINK


def test_miller_normalises_at_the_ends_of_its_range():
    # the recurrence's normalising sum stays finite and positive from
    # TINY_ARG, where a step grows p the most, to MAX_ARG, where the pass
    # is longest: every row is finite, with |J| <= 1
    xs = [TINY_ARG, 1.0e-139, MAX_ARG]
    rows = [besselj_batch(MAX_ORDER, x) for x in xs] + list(besselj_batch(MAX_ORDER, np.array(xs)))
    for row in rows:
        assert row.shape == (MAX_ORDER + 1,)
        assert np.all(np.isfinite(row)) and np.max(np.abs(row)) <= 1.0


def test_batch_evaluates_tiny_x():
    # x = 10**(e/2) down to the smallest subnormal: the batch takes the
    # closed-form row below TINY_ARG, where one recurrence step can outgrow
    # a rescale
    xs = np.array([10.0 ** (e / 2) for e in range(-646, -4)] + [5.0e-324, TINY_ARG])
    for n_max in (0, 1, 40, 532, 1200):
        rows = besselj_batch(n_max, xs)
        for x, row in zip(xs[::7], rows[::7]):
            assert np.array_equal(row, besselj_batch(n_max, float(x)))
        assert np.max(np.abs(rows - scipy.special.jv(np.arange(n_max + 1), xs[:, None]))) <= 1.0e-12


def test_array_argument_out_of_range():
    for bad in (-0.5, MAX_ARG * (1.0 + 1.0e-12), math.inf, -math.inf, math.nan):
        xs = np.array([1.0, 20.0, bad, 30.0])
        with pytest.raises(RangeError):
            besselj(0, xs)
        with pytest.raises(RangeError):
            besselj_batch(4, xs)
    with pytest.raises(RangeError):
        besselj(0, np.ones((2, 2)))
    with pytest.raises(RangeError):
        besselj(MAX_ORDER + 1, np.ones(3))


def test_batch_shape_and_dtype():
    b = besselj_batch(5, 2.0)
    assert b.shape == (6,) and b.dtype == np.float64


def test_normalization_identity():
    # J_0(x)^2 + 2 sum_{k>=1} J_k(x)^2 = 1
    for x in (0.5, 10.0, 100.0, 1000.0):
        b = besselj_batch(int(x) + 200, x)
        total = b[0] ** 2 + 2.0 * np.sum(b[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1.0e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1199),
    x=st.floats(min_value=1.0e-3, max_value=10000.0, allow_nan=False),
)
def test_three_term_recurrence(n, x):
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
    jm, j0, jp = besselj(n - 1, x), besselj(n, x), besselj(n + 1, x)
    mid = (2.0 * n / x) * j0
    scale = max(abs(jm), abs(mid), abs(jp))
    # each value carries abs error <= 1e-12 (amplified by 2n/x on the middle
    # term), plus rounding relative to the largest participant
    assert abs(jm + jp - mid) <= 1.0e-9 * scale + (2.0 + 2.0 * n / x) * 1.0e-12


def test_order_out_of_range():
    with pytest.raises(RangeError):
        besselj(MAX_ORDER + 1, 1.0)
    with pytest.raises(RangeError):
        besselj(-(MAX_ORDER + 1), 1.0)
    with pytest.raises(RangeError):
        besselj_batch(MAX_ORDER + 1, 1.0)
    with pytest.raises(RangeError):
        besselj_batch(-1, 1.0)


def test_argument_out_of_range():
    for bad in (-0.5, MAX_ARG * (1.0 + 1.0e-12), math.inf, math.nan):
        with pytest.raises(RangeError):
            besselj(0, bad)
        with pytest.raises(RangeError):
            besselj_batch(4, bad)


@pytest.fixture(scope="module")
def zeros_1001():
    return j1_zeros(1001)


@pytest.mark.parametrize("r,expected", J1_ZEROS_FROZEN)
def test_frozen_zeros(zeros_1001, r, expected):
    assert zeros_1001[r] == pytest.approx(expected, abs=1.0e-11)


def test_zeros_match_scipy(zeros_1001):
    ref = scipy.special.jn_zeros(1, 1000)
    assert np.max(np.abs(zeros_1001[1:] - ref)) <= 1.0e-11


def _one_x_zero(r):
    # the zero finder's steps for one zero, through float calls only
    def j0_j1(x):
        row = besselj_batch(1, x)
        return float(row[0]), float(row[1])

    beta = (r + 0.25) * math.pi
    b2 = beta * beta
    x = beta - 0.375 / beta + (3.0 / 128.0) / (beta * b2) - 0.23025 / (beta * b2 * b2)
    a, b = x - 0.2, x + 0.2
    fa = j0_j1(a)[1]
    for _ in range(60):
        j0, j1 = j0_j1(x)
        if abs(j1) <= ZERO_TOL:
            return x
        if j1 * fa < 0.0:
            b = x
        else:
            a, fa = x, j1
        deriv = j0 - j1 / x
        newton = x - j1 / deriv if deriv != 0.0 else math.nan
        x = newton if a < newton < b else 0.5 * (a + b)
    raise AssertionError(f"zero {r} did not converge")


def test_zeros_are_bitwise_one_x_steps(zeros_1001):
    for r in (*range(1, 30), 500, 999, 1000):
        assert zeros_1001[r] == _one_x_zero(r)


def test_no_bracket_end_is_a_zero():
    # j1_zeros brackets zero r by its McMahon guess +- 0.2 and needs a
    # strict sign change there: no end of any supported zero's bracket
    # lies near a zero of J1 (the smallest |J1|, 1.585e-3, is at the last)
    guess = _mcmahon_j1(np.arange(1, MAX_ZEROS + 1))
    ends = besselj(1, np.concatenate([guess - 0.2, guess + 0.2]))
    assert ends.size == 2 * MAX_ZEROS
    assert np.min(np.abs(ends)) > 1.0e-3


def _count_lane_passes(monkeypatch):
    calls = []

    def counted(n_max, xs):
        calls.append(xs.size)
        return _miller_lanes(n_max, xs)

    monkeypatch.setattr(bessel, "_miller_lanes", counted)
    return calls


def test_zero_search_lane_passes(monkeypatch):
    # one pass for the bracket ends and the first Newton point, then one
    # per further Newton step
    calls = _count_lane_passes(monkeypatch)
    j1_zeros(1001)
    assert len(calls) == 3
    guess = _mcmahon_j1(np.arange(1, 1001))
    first = np.concatenate([guess - 0.2, guess + 0.2, guess])
    assert calls[0] == first.size  # every entry, the first zero's bracket too


def test_zeros_refuse_a_bracket_without_sign_change(monkeypatch):
    # a guess 1.0 off puts zero 7 outside its bracket [guess - 0.2, guess + 0.2]
    def moved(r):
        return _mcmahon_j1(r) + np.where(r == 7, 1.0, 0.0)

    monkeypatch.setattr(bessel, "_mcmahon_j1", moved)
    calls = _count_lane_passes(monkeypatch)
    with pytest.raises(ZeroFindingError, match="no sign change around zero 7 in"):
        j1_zeros(60)
    assert len(calls) == 1  # refused from the first pass, before any Newton step


def test_zeros_refuse_a_newton_step_that_leaves_its_bracket(monkeypatch):
    # J1 read as 0.5 at zero 7's expansion guess sends its first Newton
    # step about 3 away, far past the bracket's half-width 0.2
    batch = bessel.besselj_batch
    passes = []

    def skewed(n_max, xs):
        out = batch(n_max, xs).copy()
        if not passes:
            out[2 * 59 + 6, 1] = 0.5  # lane 6 of the guesses is zero 7
        passes.append(xs.size)
        return out

    monkeypatch.setattr(bessel, "besselj_batch", skewed)
    with pytest.raises(ZeroFindingError, match="Newton step of zero 7 left"):
        j1_zeros(60)
    assert passes == [3 * 59]  # refused before a second pass


def test_zeros_refuse_a_zero_that_does_not_refine(monkeypatch):
    monkeypatch.setattr(bessel, "ZERO_TOL", 0.0)
    with pytest.raises(ZeroFindingError, match="zero 1 did not refine to"):
        j1_zeros(3)


def test_zeros_start_at_origin(zeros_1001):
    assert zeros_1001[0] == 0.0


def test_zeros_residual_tolerance(zeros_1001):
    vals = np.array([abs(besselj(1, float(z))) for z in zeros_1001[1:]])
    assert vals.max() <= ZERO_TOL


def test_zeros_strictly_increasing(zeros_1001):
    assert np.all(np.diff(zeros_1001) > 0.0)


def test_gaps_approach_pi(zeros_1001):
    gaps = np.diff(zeros_1001[900:1001])
    assert np.max(np.abs(gaps - math.pi)) <= 1.0e-3


def test_sign_change_certificate(zeros_1001):
    assert sign_change_certificate(zeros_1001)


def test_certificate_rejects_tampering(zeros_1001):
    bad = zeros_1001.copy()
    bad[500] += 0.05  # no longer a zero
    assert not sign_change_certificate(bad)


def test_zero_sequence_is_immutable(zeros_1001):
    with pytest.raises(ValueError):
        zeros_1001[3] = 1.0


def test_zero_count_limits():
    with pytest.raises(RangeError):
        j1_zeros(0)
    with pytest.raises(RangeError):
        j1_zeros(MAX_ZEROS + 2)  # indices 0..MAX_ZEROS are supported
    seq = j1_zeros(3)
    assert seq.size == 3


def test_every_supported_zero_lies_in_the_box():
    # the 1e-12 contract covers x <= MAX_ARG; the next zero, 10000.47, does not
    seq = j1_zeros(MAX_ZEROS + 1)
    assert seq[-1] <= MAX_ARG
    assert seq[-1] + 3.0 > MAX_ARG  # the last zero in the box, not an earlier one
    assert seq[-1] == pytest.approx(scipy.special.jn_zeros(1, MAX_ZEROS)[-1], abs=1e-9)
