"""Tests for the two independent diagonal-integral routes.

The direct truncated quadrature is the designated oracle, so its
reference values below were recorded from this module itself and are
regression anchors; their correctness is cross-checked against the
table route through the gap window tests, and the table route is built
on the in-house Bessel backend while the direct route has its own numpy
kernel, so the two share no evaluation code. scipy and mpmath values
check that kernel; the mpmath ones are literals, so mpmath is not needed.
"""
import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import lacuna.bessel
from lacuna import integrals as ig
from lacuna.errors import RangeError

# i_direct((0,)*6) at the default r_max=4000 and at the sweep's r_max=40000;
# mutually consistent within error bounds
REF_000_COARSE = 0.33680780419262046
REF_000_FINE = 0.3368259460831131
REF_000_FINE_ERR = 6.450366230456916e-06
TILDE_000 = 0.3367587529549453
# the exact 1001-node sum of I~(1,0,0): mpmath at 30 digits on exact J1 zeros
TILDE_100 = 0.067342522752255859884
COPT_COARSE = 524.9302729529828
COPT_FINE = 524.9585479139832
F_100 = 4.999999992181918


@pytest.fixture(scope="module")
def table12():
    return ig.build_table(12)


def test_weight_at_origin_is_exact(table12):
    # J0(0) = 1, so the r = 0 weight is exactly (2/9)/1
    assert table12.weights[0] == 2.0 / 9.0
    assert table12.nodes[0] == 0.0
    assert np.all(table12.weights > 0.0)
    assert np.all(np.isfinite(table12.weights))


def test_j0_stays_away_from_zero_at_every_node():
    # the table's weights divide by J0^2 at the J1 zeros; NODE_COUNT is a
    # constant and the smallest |J0| there is 0.01423, at the last zero
    zeros = lacuna.bessel.j1_zeros(ig.NODE_COUNT)[1:]
    assert np.abs(lacuna.bessel.besselj(0, zeros)).min() > 1e-2


def test_table_rebuild_is_bitwise_identical():
    a = ig.build_table(6)
    b = ig.build_table(6)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bessel_cache, b.bessel_cache)
    assert a.order_cap == b.order_cap == 6
    assert a.bessel_cache.shape == (1001, 7)


def test_tilde_reference_value(table12):
    got = ig.i_tilde(0, 0, 0, table12)
    assert got.value == pytest.approx(TILDE_000, rel=1.0e-12)
    assert got.error_bound == 0.01
    assert got.lo < got.value < got.hi


def test_tilde_is_the_exact_discrete_sum():
    # the table's rounding error, not its 1e-2 gap to the integral
    got = ig.i_tilde(1, 0, 0, ig.build_table(40))
    assert abs(got.value - TILDE_100) <= 2.0e-16


def test_tilde_permutation_invariance(table12):
    base = ig.i_tilde(2, 5, 7, table12).value
    for trip in [(7, 2, 5), (5, 7, 2), (2, 7, 5), (7, 5, 2), (5, 2, 7)]:
        assert ig.i_tilde(*trip, table12).value == base


def test_tilde_input_validation(table12):
    with pytest.raises(RangeError):
        ig.i_tilde(-1, 0, 0, table12)
    with pytest.raises(RangeError):
        ig.i_tilde(13, 0, 0, table12)  # beyond this table's rows


def test_tilde_past_guarantee_cap_is_refused():
    # the table holds no row past the certified range, so none can be read
    with pytest.raises(RangeError, match="order_cap 533 outside"):
        ig.build_table(533)
    tab = ig.build_table(532)
    inside = ig.i_tilde(532, 0, 0, tab)
    assert inside.value > 0.0 and math.isfinite(inside.value)
    with pytest.raises(RangeError, match="order 533 outside"):
        ig.i_tilde(533, 0, 0, tab)
    with pytest.raises(RangeError, match="order 533 outside"):
        ig.i_tilde(0, 533, 1, tab)


def test_direct_reference_values():
    coarse = ig.i_direct((0,) * 6)
    assert coarse.value == pytest.approx(REF_000_COARSE, rel=1.0e-11)
    assert coarse.error_bound == pytest.approx(ig.quad_bound(4000.0, 0) + ig.TAIL_COEFF / 4000.0)
    fine = ig.i_direct((0,) * 6, r_max=40000.0)
    assert fine.value == pytest.approx(REF_000_FINE, rel=1.0e-11)
    assert fine.error_bound == pytest.approx(REF_000_FINE_ERR)
    assert fine.error_bound < 1.0e-5
    # the two parameter choices must agree within their combined bounds
    assert abs(fine.value - coarse.value) < fine.error_bound + coarse.error_bound


def test_gap_window_small_orders(table12):
    # truncation discards a non-negative integrand, so the measured gap
    # minus the quadrature self-difference certifies positivity; the
    # upper side gets the full direct-route error added
    for a in range(7):
        for b in range(a, 7):
            for c in range(b, 7):
                direct = ig.i_direct((a, a, b, b, c, c))
                tilde = ig.i_tilde(a, b, c, table12)
                gap = direct.value - tilde.value
                assert gap > 1.0e-7, (a, b, c, gap)
                assert gap + direct.error_bound < 1.0e-2, (a, b, c, gap)


def test_direct_sign_parity():
    base = ig.i_direct((1, 1, 0, 0, 0, 0)).value
    assert ig.i_direct((-1, -1, 0, 0, 0, 0)).value == base
    assert ig.i_direct((1, -1, 0, 0, 0, 0)).value == -base
    even = ig.i_direct((1, 1, 2, 2, 0, 0)).value
    assert ig.i_direct((1, 1, -2, 2, 0, 0)).value == even
    assert ig.i_direct((-1, 1, -2, 2, 0, 0)).value == -even


def test_direct_tail_soundness():
    for sextet in [(0,) * 6, (1, 1, 2, 2, 0, 0), (3, 1, 0, 2, 2, 0)]:
        near = ig.i_direct(sextet, r_max=2000.0)
        far = ig.i_direct(sextet, r_max=4000.0)
        assert abs(near.value - far.value) <= ig.TAIL_COEFF / 2000.0 + 2.0e-6


def test_direct_input_validation():
    with pytest.raises(RangeError):
        ig.i_direct((533, 0, 0, 0, 0, 0))
    with pytest.raises(RangeError):
        ig.i_direct((0,) * 6, r_max=50.0)
    # the cap binds the largest modulus, whatever its sign or slot
    with pytest.raises(RangeError, match="order -533 outside"):
        ig.i_direct((0, -533, 0, 0, 0, 0))
    for bad in [(0, 0, 0, 0, 0, 533), (0, 0), (0, 0, 0, 0, 0.5, 1), (0, 0, 0, 0, True, 1)]:
        with pytest.raises(RangeError):
            ig.i_direct(bad)


def test_direct_rejects_r_max_at_or_below_order(monkeypatch):
    # the tail envelope needs r > N for the largest order N
    with pytest.raises(RangeError, match="order 532"):
        ig.i_direct((532,) * 6, r_max=100.0)
    with pytest.raises(RangeError):
        ig.i_direct((0, 0, 0, 0, 200, 200), r_max=200.0)
    with pytest.raises(RangeError, match="order 200"):
        ig.sweep_diagonal(200, r_max=150.0)
    # past MAX_R_MAX, or past the sweep's ceiling, no grid is built to find out
    def forbidden(r_max):
        raise AssertionError(f"built a grid to r_max {r_max}")

    monkeypatch.setattr(ig, "_grid_blocks", forbidden)
    with pytest.raises(RangeError, match=r"n_max 201 outside \[0, 200\]"):
        ig.sweep_diagonal(ig.SWEEP_MAX_N + 1)
    for r_max in (40001.0, 1.0e300):
        with pytest.raises(RangeError, match="exceeds 40000"):
            ig.i_direct((0,) * 6, r_max=r_max)
        with pytest.raises(RangeError, match="exceeds 40000"):
            ig.sweep_diagonal(2, r_max=r_max)


def test_proven_bound_within_default_tol_plus_plain_tail():
    # never wider than tol + (2/pi)^3 / r_max at each setting's default tol;
    # the bound grows with the largest order, so order 532 is the worst case
    for r_max, old_tol in ((4000.0, 1.0e-6), (40000.0, 2.0e-6)):
        for top in (0, 8, 40, 532):
            new = ig.quad_bound(r_max, top) + ig.tail_bound(r_max, top)
            assert new <= old_tol + ig.TAIL_COEFF / r_max, (r_max, top)
        assert ig.tail_bound(r_max, 0) == ig.TAIL_COEFF / r_max
        # for N > 0 the envelope sits above sqrt(2 / (pi r)): the tail grows
        assert ig.tail_bound(r_max, 532) == ig.TAIL_COEFF / math.sqrt(r_max**2 - 532**2)


def test_eval_bound_is_bitwise_its_formula():
    # the per-r_max parts are shared between tops; the bound must not move a bit
    for r_max in (1000.0, 4000.0, 40000.0):
        nodes, rw = ig._panel_grid(r_max)
        for top in (0, 8, 40, 532):
            if top >= r_max:
                continue
            gap = np.maximum(nodes * nodes - top * top, 1.0e-300)
            env = np.minimum(1.0, ig.LANDAU_C / np.cbrt(nodes))
            env = np.minimum(env, np.sqrt(2.0 / (math.pi * np.sqrt(gap))))
            d = ig.BESSEL_FACTOR_ERR + 8.0 * ig.UNIT_ROUNDOFF * nodes
            k = (nodes.size + 16) * ig.UNIT_ROUNDOFF
            expected = float(np.sum(rw * (env + d) ** 5 * (6.0 * d + k / (1.0 - k) * (env + d))))
            assert ig._eval_bound(r_max, top) == expected, (r_max, top)


def test_modulus_envelope_bounds_every_order():
    # (pi/2) sqrt(x^2 - n^2) (J_n^2 + Y_n^2) <= 1 for x > n (Watson 13.74),
    # which the tail and the evaluation bound use; for n = 0 it reads x
    for n in (0, 1, 2, 13, 121, 364, 532, 1200):
        x = n + np.geomspace(1.0e-6, 12000.0 - n, 4000)
        scaled = 0.5 * math.pi * np.sqrt(x * x - n * n)
        assert np.max(scaled * (scipy.special.jv(n, x) ** 2 + scipy.special.yv(n, x) ** 2)) <= 1.0
    # Landau's |J_n(x)| <= c x^(-1/3), sharp at n = 0 near x = 0.77
    for n in (0, 1, 2, 13, 121, 532):
        x = np.concatenate((np.linspace(0.5, 1.1, 2001), np.geomspace(1.0e-3, 12000.0, 4000)))
        assert np.max(np.abs(scipy.special.jv(n, x)) * np.cbrt(x)) <= ig.LANDAU_C


def _reference_pass(orders, r_max, refine=4):
    # an independent rule with 4x the panels, from leggauss and jv alone
    n_panels = refine * math.ceil(r_max / ig.PANEL_WIDTH)
    t, w = np.polynomial.legendre.leggauss(ig.GL_ORDER)
    half = 0.5 * r_max / n_panels
    r = ((2 * np.arange(n_panels) + 1)[:, None] * half + half * t).ravel()
    prod = r * np.tile(half * w, n_panels)
    for n in orders:
        prod = prod * scipy.special.jv(n, r)
    return math.fsum(prod)


@pytest.mark.parametrize(
    "moduli",
    [(0,) * 6, (0, 0, 1, 1, 2, 2), (1, 1, 2, 2, 3, 3), (0, 1, 4, 13, 40, 121),
     (5, 5, 121, 121, 364, 364)],
)
def test_single_pass_within_proven_bound(moduli):
    one = ig.i_direct(moduli, r_max=1000.0)
    bound = ig.quad_bound(1000.0, moduli[-1])
    assert abs(one.value - _reference_pass(moduli, 1000.0)) <= bound
    assert one.error_bound == bound + ig.tail_bound(1000.0, moduli[-1])


def test_one_quadrature_pass_per_value(monkeypatch):
    counts = {"_product_on_grid": 0, "_diagonal_stack": 0}

    def counted(name):
        original = getattr(ig, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(ig, name, wrapper)

    for name in counts:
        counted(name)
    # an r_max no other test uses, so the memo misses
    ig.i_direct((1, 1, 2, 2, 3, 5), r_max=1357.0)
    assert counts["_product_on_grid"] == 1
    ig.sweep_diagonal(3, r_max=1357.0)
    assert counts["_diagonal_stack"] == 1


def _cauchy_schwarz_bound(sextet):
    # sqrt(I(a,a,b,b,c,c) I(d,d,e,e,f,f)) from the upper ends of both
    # direct intervals, so it stays an upper bound under their error
    a, b, c, d, e, f = sextet
    first = ig.i_direct((a, a, b, b, c, c))
    second = ig.i_direct((d, d, e, e, f, f))
    return math.sqrt(first.hi * second.hi)


def test_cauchy_schwarz_over_small_sextets():
    # every sorted multiset over orders 0..6; other orderings of the
    # same multiset only permute factors of the same product
    import itertools

    for sextet in itertools.combinations_with_replacement(range(7), 6):
        direct = ig.i_direct(sextet)
        bound = _cauchy_schwarz_bound(sextet)
        assert abs(direct.value) <= bound + direct.error_bound, sextet


def test_cauchy_schwarz_random_sextets():
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        sextet = tuple(int(v) for v in rng.integers(-8, 9, size=6))
        direct = ig.i_direct(sextet)
        bound = _cauchy_schwarz_bound(sextet)
        assert abs(direct.value) <= bound + direct.error_bound, sextet


def test_diagonal_sign_invariance():
    # every factor of a diagonal sextet appears squared
    base = ig.i_direct((3, 3, 2, 2, 0, 0)).value
    for sextet in [(-3, -3, 2, 2, 0, 0), (3, 3, -2, -2, 0, 0), (0, -2, -3, 0, -2, -3)]:
        assert ig.i_direct(sextet).value == base


def test_diagonal_equality_scaling(table12):
    # five times the (1,0,0) integral reproduces the (0,0,0) one; exact
    # for the true quantities, and the table route's undershoots stay
    # well inside 2e-2 (deterministic, measured 4.6e-5)
    t1, t0 = ig.i_tilde(1, 0, 0, table12), ig.i_tilde(0, 0, 0, table12)
    assert abs(5.0 * t1.value - t0.value) <= 2.0e-2
    d1 = ig.i_direct((1, 1, 0, 0, 0, 0))
    d0 = ig.i_direct((0,) * 6)
    assert abs(5.0 * d1.value - d0.value) <= 1.0e-6


def test_f_identity_and_equality_case():
    unit = ig.f_ratio(0, 0, 0)
    assert unit.value == 1.0
    assert unit.lo < 1.0 < unit.hi
    f100 = ig.f_ratio(1, 0, 0)
    assert f100.value == pytest.approx(F_100, rel=1.0e-9)
    assert abs(f100.value - 5.0) <= 2.0e-2
    assert f100.lo <= 5.0 <= f100.hi
    assert f100.lo == ig.i_direct((0,) * 6).lo / ig.i_direct((1, 1, 0, 0, 0, 0)).hi


def test_f_permutation_and_sign_invariance():
    base = ig.f_ratio(3, -1, 0)
    for trip in [(3, 1, 0), (-3, 1, 0), (0, 1, 3), (1, 0, -3)]:
        assert ig.f_ratio(*trip).value == base.value


def test_f_floors_have_one_home():
    # each floor is assigned in lacuna.integrals alone; the certificate
    # imports the one feasible_b_interval reads, and the cli reads the table
    from lacuna import certificate, cli

    src = Path(ig.__file__).parent
    assigned = [
        (path.name, target.id)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("F_FLOOR_")
    ]
    names = [name for _, name in assigned]
    assert {path for path, _ in assigned} == {"integrals.py"}
    assert len(names) == len(set(names)) == 8
    for mod in (certificate, cli):
        for name, value in vars(mod).items():
            if name.startswith("F_FLOOR_"):
                assert value is getattr(ig, name), (mod.__name__, name)
    assert not [name for name in vars(cli) if name.startswith("F_FLOOR_")]


def test_sweep_windows_hold_a_point_from_sweep_min_n():
    windows = [window for _, _, window in ig.SWEEP_FLOORS]
    assert all(window(ig.SWEEP_MIN_N) for window in windows)
    assert not all(window(ig.SWEEP_MIN_N - 1) for window in windows)
    # the pair window leaves out (1,1,2) alone: (2,2,1), its worst point, stays
    pair = next(window for label, _, window in ig.SWEEP_FLOORS if label.startswith("pair ("))
    assert (1, 1, 2) not in pair(3) and (2, 2, 1) in pair(3)


def test_copt_values_and_consistency():
    c = ig.c_opt()
    scale = (2.0 * math.pi) ** 4
    assert c.value == pytest.approx(COPT_COARSE, rel=1.0e-11)
    assert c.value == scale * ig.i_direct((0,) * 6).value
    bound = ig.quad_bound(4000.0, 0) + ig.TAIL_COEFF / 4000.0
    assert c.error_bound == pytest.approx(scale * bound)
    assert c.value > 0.0
    fine = ig.c_opt(r_max=40000.0)
    assert fine.value == pytest.approx(COPT_FINE, rel=1.0e-11)
    # doubling the truncation radius moves the value by less than the bound
    doubled = ig.c_opt(r_max=8000.0)
    assert abs(doubled.value - c.value) < c.error_bound


def test_sweep_matches_direct_quadrature():
    sw = ig.sweep_diagonal(6, r_max=4000.0)
    assert sw.quad_diff <= 1.0e-5
    for trip in [(0, 0, 0), (1, 1, 0), (2, 4, 6), (6, 6, 6), (0, 3, 5)]:
        a, b, c = trip
        one = ig.i_direct((a, a, b, b, c, c)).value
        assert sw.value(*trip) == pytest.approx(one, abs=5.0e-11)
    # lookups are invariant under signs and permutations
    assert sw.value(-6, 4, -2) == sw.value(2, 4, 6)
    assert sw.value(5, 0, 3) == sw.value(0, 3, 5)
    with pytest.raises(RangeError):
        sw.value(7, 0, 0)


def test_threshold_window_from_sweep(sweep40):
    # shared 40-order sweep: the certificate's working precision
    sw = sweep40
    assert sw.error_bound < 1.0e-5
    # ratio families on their stated windows, worst-margin rows included
    for n in range(1, 21):
        assert sw.ratio(n, n, 0).lo > 7.94, n
    for n in range(3, 22):
        assert sw.ratio(n, n, 0).lo > 10.8, n
    for n in range(1, 41):
        assert sw.ratio(n, n, n).lo > 3.2, n
    for n in range(1, 31):
        for m in range(1, 31):
            if n != m and (n, m) != (1, 2):
                assert sw.ratio(n, n, m).lo > 10.0, (n, m)
    for n in range(2, 31):
        for m in range(1, n):
            for k in range(0, m):
                if (n, m, k) != (3, 2, 0):
                    assert sw.ratio(n, m, k).lo > 18.0, (n, m, k)
    # the equality case n = 1 cannot be certified strictly above 5 from
    # below; every later index clears 5 with room
    assert sw.ratio(1, 0, 0).lo > 4.999
    for n in range(2, 41):
        assert sw.ratio(n, 0, 0).lo > 5.0, n


def test_excluded_rows_really_sit_below(sweep40):
    # the two window exclusions are genuine: both ratios fall short of
    # their family thresholds, matching the equal-integral coincidence
    sw = sweep40
    assert sw.ratio(1, 1, 2).lo < 10.0
    assert sw.ratio(3, 2, 0).lo < 18.0
    d110 = ig.i_direct((1, 1, 1, 1, 0, 0))
    d112 = ig.i_direct((1, 1, 1, 1, 2, 2))
    assert abs(d110.value - d112.value) < 1.0e-15


def _jv_rows(orders, nodes):
    return np.array([scipy.special.jv(n, nodes) for n in orders])


def test_bessel_rows_match_jv_on_direct_grids():
    # the r_max = 4000 grid of i_direct
    nodes = ig._panel_grid(4000.0)[0]
    orders = [0, 1, 2, 13, 25, 26, 40, 121, 256, 364, 532]
    rows = ig._bessel_rows(orders, nodes)
    ref = _jv_rows(orders, nodes)
    assert rows.shape == (len(orders), nodes.size)
    # the per-factor error that the evaluation bound assumes, on both
    # sides of the split between Bessel's integral and the recurrence
    assert np.max(np.abs(rows - ref)) <= ig.BESSEL_FACTOR_ERR == 1.0e-12
    split = np.searchsorted(nodes, max(orders), "right")
    assert 0 < split < nodes.size


def test_bessel_rows_match_jv_on_sweep_grid():
    # each node's recurrence is independent of the others, so a sample of
    # the r_max = 40000 grid gives the same values as the whole grid
    nodes = ig._panel_grid(40000.0)[0]
    sample = np.concatenate((nodes[:1000], nodes[1000::29]))
    orders = list(range(41))
    rows = ig._bessel_rows(orders, sample)
    assert np.max(np.abs(rows - _jv_rows(orders, sample))) <= ig.BESSEL_FACTOR_ERR


def test_bessel_rows_empty_regions():
    # every node of the r_max = 100 grid lies below order 532: no recurrence
    nodes = ig._panel_grid(100.0)[0]
    assert nodes[-1] < 532
    rows = ig._bessel_rows([532], nodes)
    assert np.max(np.abs(rows - _jv_rows([532], nodes))) <= ig.BESSEL_FACTOR_ERR
    # order 0 alone: every node past X0 starts from Hankel's J0
    assert nodes[0] < ig.X0 < nodes[-1]
    row = ig._bessel_rows([0], nodes)[0]
    assert np.max(np.abs(row - scipy.special.j0(nodes))) <= ig.BESSEL_FACTOR_ERR


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, ig.MAX_SEXTET_ORDER), min_size=1, max_size=6, unique=True),
    st.sampled_from([100.0, 777.0, 1234.5, 4000.0]),
)
def test_bessel_row_has_its_own_bits_among_other_orders(orders, r_max):
    # one Hankel start and one recurrence serve every order of a pass, yet
    # a row depends only on its order and the nodes
    nodes = ig._panel_grid(r_max)[0]
    rows = ig._bessel_rows(orders, nodes)
    for n, row in zip(orders, rows):
        assert row.tobytes() == ig._bessel_rows([n], nodes)[0].tobytes(), n


def test_fill_grid_rows_builds_only_rows_i_direct_reads(monkeypatch):
    monkeypatch.setattr(ig, "_GRID_ROWS", {})
    # 533 is past the order cap and 150 not below r_max; bad grids build
    # nothing, and -7 is the modulus 7
    ig.fill_grid_rows([150, 0, 533, -7, 7], 150.0)
    ig.fill_grid_rows([1], ig.MIN_R_MAX / 2)
    ig.fill_grid_rows([1], 2 * ig.MAX_R_MAX)
    ig.fill_grid_rows([1], math.nan)
    assert list(ig._GRID_ROWS) == [(0, 150.0), (7, 150.0)]
    nodes = ig._panel_grid(150.0)[0]
    assert ig._GRID_ROWS[7, 150.0].tobytes() == ig._bessel_rows([7], nodes)[0].tobytes()


def test_grid_rows_keep_the_48_most_recently_used(monkeypatch):
    monkeypatch.setattr(ig, "_GRID_ROWS", {})
    ig.fill_grid_rows(range(50), 100.0)
    assert sorted(n for n, _ in ig._GRID_ROWS) == list(range(2, 50))
    ig._grid_rows([2], 100.0)  # a hit becomes the most recent
    [row] = ig._grid_rows([0], 100.0)  # a miss evicts the least recent, 3
    assert [n for n, _ in ig._GRID_ROWS][-2:] == [2, 0] and (3, 100.0) not in ig._GRID_ROWS
    assert len(ig._GRID_ROWS) == 48 and not row.flags.writeable


# (n, x, J_n(x) from mpmath besselj at 30 digits): x in {n - 3.3, n, n + 2.7}
# where positive, both sides of X0, and far out on the r_max = 40000 grid
BESSEL_ROWS_FROZEN = [
    (0, 0.0, 1.0),
    (0, 2.7, -1.424493700460119002645e-1),
    (1, 1.0, 4.400505857449335159597e-1),
    (1, 3.7, 5.383398774546179051315e-2),
    (121, 117.7, 4.126892403896321234683e-2),
    (121, 121.0, 9.043458708576722655073e-2),
    (121, 123.7, 1.289632144680910824532e-1),
    (364, 360.7, 3.769643933949904099462e-2),
    (364, 364.0, 6.264744093282996821627e-2),
    (364, 366.7, 8.292427331585906472304e-2),
    (532, 528.7, 3.557979913533228308247e-2),
    (532, 532.0, 5.520360811338662798682e-2),
    (532, 534.7, 7.122192207931600778456e-2),
    (40, 36.7, 3.745281172742631407684e-2),
    (40, 40.0, 1.30780545285166722103e-1),
    (40, 42.7, 1.945616695831174103447e-1),
    (0, 24.75, 6.209579173200768982039e-2),
    (0, 25.25, 1.241420860363390926333e-1),
    (1, 24.75, -1.466304272818479901621e-1),
    (1, 25.25, -9.653920971948138607861e-2),
    (2, 24.75, -7.39447151487226789244e-2),
    (2, 25.25, -1.317887561131296974712e-1),
    (7, 24.75, 2.890899353577510460281e-2),
    (7, 25.25, -4.827588255561526961685e-2),
    (0, 39999.9, 3.737985220525808717009e-3),
    (1, 39999.9, 1.393962284862284662444e-3),
    (40, 39999.9, 3.709362047210090834459e-3),
]


@pytest.mark.parametrize("n,x,expected", BESSEL_ROWS_FROZEN)
def test_bessel_rows_frozen_anchor(n, x, expected):
    assert abs(ig._bessel_rows([n], np.array([x]))[0, 0] - expected) <= 1.0e-13


def test_bessel_rows_match_package_bessel_to_order_1200():
    # the table route's Miller recurrence, an independent second route:
    # grid nodes up to MAX_ARG, denser where x is near the orders
    nodes = ig._panel_grid(lacuna.bessel.MAX_ARG)[0]
    sample = np.concatenate((nodes[:16000:41], nodes[16000::397]))
    orders = list(range(0, lacuna.bessel.MAX_ORDER + 1, 7)) + [lacuna.bessel.MAX_ORDER]
    rows = ig._bessel_rows(orders, sample)
    ref = lacuna.bessel.besselj_batch(lacuna.bessel.MAX_ORDER, sample)[:, orders].T
    assert np.max(np.abs(rows - ref)) <= 1.0e-12


def test_direct_route_uses_no_package_bessel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the direct route must not call lacuna.bessel")

    for name in ("besselj", "besselj_batch", "j1_zeros"):
        monkeypatch.setattr(lacuna.bessel, name, forbidden)
        monkeypatch.setattr(ig, name, forbidden)
    # parameters no other test uses, so nothing comes from a memo
    got = ig.i_direct((1, 1, 2, 2, 3, 3), r_max=1234.0)
    assert got.value > 0.0
    sw = ig.sweep_diagonal(3, r_max=1234.0)
    assert sw.value(1, 2, 3) == pytest.approx(got.value, abs=5.0e-11)


def test_f_ratio_reuses_direct_values(monkeypatch):
    calls = []
    original = ig._product_on_grid

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ig, "_product_on_grid", counted)
    first = ig.f_ratio(2, 1, 0, r_max=1500.0)
    assert calls  # numerator and denominator were evaluated
    seen = len(calls)
    again = ig.f_ratio(2, 1, 0, r_max=1500.0)
    signed = ig.f_ratio(0, -1, 2, r_max=1500.0)
    assert len(calls) == seen
    assert again == first and signed.value == first.value


def test_table_uses_array_passes(monkeypatch):
    # the table's J0 weights and rows, and the J1 zeros, come from lane
    # passes over all nodes; a per-node call would reach the one-x loop
    def forbidden(*args, **kwargs):
        raise AssertionError("the table must not run the one-x recurrence")

    monkeypatch.setattr(lacuna.bessel, "_miller", forbidden)
    table = ig.build_table(40)
    assert table.bessel_cache.shape == (1001, 41)


def test_gauss_legendre_literals_are_leggauss():
    # the module writes the rule out rather than import numpy.polynomial
    t, w = np.polynomial.legendre.leggauss(ig.GL_ORDER)
    for literal, reference in ((ig._GL_NODES, t), (ig._GL_WEIGHTS, w)):
        assert len(literal) == ig.GL_ORDER and literal.dtype == np.float64
        assert np.array_equal(literal.view(np.int64), reference.view(np.int64))


def test_grid_blocks_are_the_whole_grid_bit_for_bit():
    # every grid node comes from _grid_blocks, cut at multiples of
    # BESSEL_BLOCK from node 0; the blocks hold the whole-grid expressions'
    # values bit for bit, and a partial last block ends the grid
    for r_max in (100.0, 777.0, 1234.5, 4000.0, 40000.0):
        n_panels = math.ceil(r_max / ig.PANEL_WIDTH)
        width = r_max / n_panels
        centers = (np.arange(n_panels) + 0.5) * width
        nodes = (centers[:, None] + (0.5 * width) * ig._GL_NODES[None, :]).ravel()
        rw = nodes * np.tile(0.5 * width * ig._GL_WEIGHTS, n_panels)
        assert nodes.size % ig.BESSEL_BLOCK, r_max
        cols, block_nodes, block_rw = zip(*ig._grid_blocks(r_max))
        starts = range(0, nodes.size, ig.BESSEL_BLOCK)
        assert [(c.start, c.stop) for c in cols] == [
            (lo, min(lo + ig.BESSEL_BLOCK, nodes.size)) for lo in starts
        ]
        assert np.concatenate(block_nodes).tobytes() == nodes.tobytes(), r_max
        assert np.concatenate(block_rw).tobytes() == rw.tobytes(), r_max
        grid_nodes, grid_rw = ig._panel_grid(r_max)
        assert grid_nodes.tobytes() == nodes.tobytes(), r_max
        assert grid_rw.tobytes() == rw.tobytes(), r_max


def test_sweep_holds_no_grid_sized_array():
    # one array of the r_max 40000 grid's 509,300 nodes is 3.9 MiB, and
    # numpy reports its buffers to tracemalloc; the caches start empty, so
    # a grid the sweep built and kept would count in both figures. At
    # n_max 40 one block's 41 rows take 1.3 MiB, where rows of the 861
    # sorted order pairs would take 26.9 MiB
    for n_max, r_max in ((8, 40000.0), (40, 4000.0)):
        for fn in vars(ig).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        tracemalloc.start()
        try:
            sweep = ig.sweep_diagonal(n_max, r_max=r_max)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sweep.direct.shape == (n_max + 1,) * 3
        assert peak < 8 * 2**20, (n_max, peak)
        assert held < 2**20, (n_max, held)


def test_diagonal_stack_matches_whole_grid_sum():
    # several node blocks, the last one partial
    r_max = 1000.0
    nodes, rw = ig._panel_grid(r_max)
    assert nodes.size % ig.BESSEL_BLOCK and nodes.size > 3 * ig.BESSEL_BLOCK
    j2 = ig._bessel_rows(list(range(7)), nodes) ** 2
    want = np.einsum("kr,mr,nr->kmn", j2 * rw, j2, j2)
    got = ig._diagonal_stack(6, r_max)
    assert np.max(np.abs(got - want)) <= 1.0e-14
    assert np.array_equal(got, got.transpose(1, 0, 2))  # mirrored, not recomputed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=3, max_size=3))
def test_f_interval_property(trip):
    got = ig.f_ratio(*trip)
    assert got.lo <= got.value <= got.hi
    assert got.lo > 0.0
    assert got.value >= 0.99  # the all-zero triple is the maximizer
