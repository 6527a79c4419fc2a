"""Sextet Bessel integrals and their diagonal specializations.

Everything here evaluates integrals of the form

    I(n1,...,n6) = integral_0^inf J_{n1}(r) ... J_{n6}(r) r dr

each with an explicit absolute error bound, by one of two independent
routes:

* table route (``i_tilde``): the diagonal case I(k,k,m,m,n,n) by a
  1001-node positive quadrature over scaled J1 zeros, guaranteed to
  undershoot the true integral by less than 1e-2 for orders up to 532;
  Bessel factors come from this package's own evaluator (lacuna.bessel).
* direct route (``i_direct``, and ``sweep_diagonal`` for every diagonal
  triple at once): one pass of 10-node Gauss-Legendre panels of width
  <= pi/4 on [0, R], for orders <= N < R and 100 <= R <= 40000. Its
  bound is proven before the pass and is the only accuracy setting:
  disc(R) + eval(R, N) + tail(R, N), see ``quad_bound`` and
  ``tail_bound``. Bessel factors come from a numpy kernel in this
  module (``_bessel_rows``): the trapezoid rule on Bessel's integral on
  nodes r <= max(n, X0), and J0, J1 from Hankel's expansion carried up
  by the forward recurrence on nodes r > max(n, X0), where it is
  stable. They agree with ``scipy.special.jv`` to 7.0e-14 absolute on
  the r_max = 4000 grid for every order 0..532, and with mpmath to
  7.5e-16 at x near n for n up to 532; the tests check the per-factor
  assumption BESSEL_FACTOR_ERR = 1e-12 against both, and against
  lacuna.bessel up to order 1200. The run needs numpy alone.

The two routes share no Bessel code, so their agreement is a genuine
cross-check rather than a reproducibility statement.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import besselj, besselj_batch, j1_zeros
from .errors import QuadratureError, RangeError, check_int

GL_ORDER = 10
PANEL_WIDTH = math.pi / 4.0          # under the product's oscillation scale
TAIL_COEFF = (2.0 / math.pi) ** 3
ORDER_GUARANTEE_CAP = 532            # table gap bound certified up to here
TABLE_GAP = 1.0e-2                   # one-sided gap bound of the table route
MAX_SEXTET_ORDER = 532
DEFAULT_R_MAX = 4000.0
SWEEP_N_MAX = 40                     # the diagonal sweep's default grid
# the sweep's ceiling: n_max 200 takes 93 s and 879 MB peak RSS (2-vCPU Xeon);
# its (n+1)(n+2)/2-row products and (n+1)^3 cube would need ~6.5 GB at 532
SWEEP_MAX_N = 200
SWEEP_R_MAX = 40000.0
MIN_R_MAX = 100.0
# the largest grid on which the tests pin the direct route's Bessel factors
MAX_R_MAX = 40000.0
NODE_COUNT = 1001
BESSEL_BLOCK = 4096                  # nodes per pass of the grid kernels
ELLIPSE_RHO = 20.0                   # Bernstein ellipse of the discretisation bound
LANDAU_C = 0.7857468705              # |J_n(x)| <= c x^(-1/3), n >= 0 (Landau 2000)
BESSEL_FACTOR_ERR = 1.0e-12          # assumed, and tested: |computed - true| of one factor
X0 = 25.0                            # direct-route J0, J1: Bessel's integral below, Hankel above
ALIAS_TOL = 1.0e-17                  # size of a term either direct-route kernel drops
TEMP_DOUBLES = 1 << 17               # 1 MB: largest temporary of the trapezoid kernel
UNIT_ROUNDOFF = 2.0**-53

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)
_LOG_ALIAS_TOL = math.log(ALIAS_TOL)


@dataclass(frozen=True)
class IntegralValue:
    """An integral estimate with a two-sided absolute error bound."""

    value: float
    error_bound: float

    def __post_init__(self) -> None:
        if not (0.0 < self.error_bound < math.inf):
            raise RangeError(
                f"error bound must be finite and positive, got {self.error_bound!r}"
            )

    @property
    def lo(self) -> float:
        return self.value - self.error_bound

    @property
    def hi(self) -> float:
        return self.value + self.error_bound


@dataclass(frozen=True)
class QuadratureTable:
    """Precomputed nodes sigma_r/3, weights (2/9)/J0(sigma_r)^2 and J rows.

    ``bessel_cache[r, k]`` holds J_k(sigma_r/3) for k = 0..order_cap.
    Immutable and safe to share.
    """

    nodes: np.ndarray
    weights: np.ndarray
    bessel_cache: np.ndarray
    order_cap: int


def build_table(order_cap: int) -> QuadratureTable:
    """Build the quadrature table for orders 0..order_cap <= ORDER_GUARANTEE_CAP.

    Built in memory on every call, a few tenths of a second, and never
    written to disk. Rows past ORDER_GUARANTEE_CAP would carry no
    certified gap, so ``i_tilde`` could not read them; they are refused.
    """
    order_cap = check_int(order_cap, "order_cap", 0, ORDER_GUARANTEE_CAP)
    zeros = j1_zeros(NODE_COUNT)
    j0_at = besselj(0, zeros)
    if np.any(np.abs(j0_at) <= 1.0e-3):
        raise QuadratureError("J0 nearly vanishes at a J1 zero; weights unusable")
    weights = (2.0 / 9.0) / (j0_at * j0_at)
    nodes = zeros / 3.0
    rows = besselj_batch(order_cap, nodes)
    for arr in (nodes, weights, rows):
        arr.setflags(write=False)
    return QuadratureTable(nodes, weights, rows, order_cap)


def i_tilde(k: int, m: int, n: int, table: QuadratureTable) -> IntegralValue:
    """Discrete 1001-node estimate of the diagonal integral from below.

    The sum undershoots I(k,k,m,m,n,n) by an amount in (0, 1e-2), a gap
    certified only for max(k,m,n) <= ORDER_GUARANTEE_CAP, past which
    ``build_table`` holds no rows. ``check_int`` holds each order to
    [0, table.order_cap]; the orders are sorted, as the product's
    rounding depends on their order.
    """
    ks = sorted(check_int(v, "order", 0, table.order_cap) for v in (k, m, n))
    a, b, c = (table.bessel_cache[:, v] for v in ks)
    terms = table.weights * (a * a) * (b * b) * (c * c)
    return IntegralValue(math.fsum(terms), TABLE_GAP)


@functools.lru_cache(maxsize=16)
def _panel_grid(r_max: float) -> tuple[np.ndarray, np.ndarray]:
    n_panels = math.ceil(r_max / PANEL_WIDTH)
    width = r_max / n_panels
    centers = (np.arange(n_panels) + 0.5) * width
    nodes = (centers[:, None] + (0.5 * width) * _GL_NODES[None, :]).ravel()
    rw = nodes * np.tile(0.5 * width * _GL_WEIGHTS, n_panels)  # r dr weight
    nodes.setflags(write=False)
    rw.setflags(write=False)
    return nodes, rw


def _kapteyn_log(nu, x):
    """log of Kapteyn's bound on |J_nu(x)|, 0 < x <= nu (DLMF 10.14.5).

    (x/nu)^nu e^w / (1 + w/nu)^nu with w = sqrt(nu^2 - x^2) is
    exp(w - nu arccosh(nu/x)); it grows with x and falls with nu.
    """
    return np.sqrt(nu * nu - x * x) - nu * np.arccosh(nu / x)


@functools.lru_cache(maxsize=4096)
def _alias_free_order(x: int) -> int:
    """Least order nu > x whose J_nu stays below ALIAS_TOL on (0, x]."""
    nu = x + 1
    while _kapteyn_log(nu, x) > _LOG_ALIAS_TOL:
        nu += 1
    return nu


def _trapezoid_rows(orders: list[int], x: np.ndarray, out: np.ndarray) -> None:
    """out[i] = J_{orders[i]}(x) by the trapezoid rule on Bessel's integral.

    The M = 4q-point rule on J_n(x) = (1/2pi) int_{-pi}^{pi} cos(n t - x sin t) dt
    folds, by the integrand's symmetries, onto q + 1 points t_j = j pi/(2q):
    J_n = (1/q) sum'' cos(n t_j) cos(x sin t_j) for even n and
    sin(n t_j) sin(x sin t_j) for odd n, halving the end terms. It returns
    J_n plus the aliases J_{kM-n} and J_{kM+n}, k >= 1 (Trefethen and
    Weideman, SIAM Review 56, 2014), so q is chosen per block of nodes to
    put M - max(orders) at _alias_free_order of the block's largest node.
    A block's trigonometric matrix holds at most TEMP_DOUBLES values.
    """
    top = max(orders)
    even = [i for i, n in enumerate(orders) if n % 2 == 0]
    odd = [i for i, n in enumerate(orders) if n % 2]
    parities = [(rows, trig) for rows, trig in ((even, np.cos), (odd, np.sin)) if rows]

    def quarter(last: float) -> int:  # least q with 4q - top >= the alias-free order
        return -(-(top + _alias_free_order(max(1, math.ceil(last)))) // 4)

    step = max(1, TEMP_DOUBLES // (quarter(x[-1]) + 1))
    for lo in range(0, x.size, step):
        block = x[lo:lo + step]
        q = quarter(block[-1])
        j = np.arange(q + 1)
        rule = np.full(q + 1, 1.0 / q)
        rule[0] = rule[-1] = 0.5 / q
        arg = np.multiply.outer(block, np.sin((math.pi / (2 * q)) * j))
        for rows, trig in parities:
            # n t_j reduced exactly: cos and sin see angles below 2 pi
            turns = np.multiply.outer([orders[i] for i in rows], j) % (4 * q)
            weights = trig((math.pi / (2 * q)) * turns) * rule
            out[rows, lo:lo + block.size] = weights @ trig(arg).T


def _hankel_coefficients() -> np.ndarray:
    """(-1)^(k//2) a_k(nu) of Hankel's expansion (DLMF 10.17.1), rows nu = 0, 1.

    a_k(nu) = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (8j). The columns run,
    to an even count, past the first k with both |a_k| X0^-k <= ALIAS_TOL.
    """
    cols, k = [(1.0, 1.0)], 0
    while max(map(abs, cols[-1])) > ALIAS_TOL * X0**k or len(cols) % 2:
        k += 1
        cols.append(tuple(
            a * (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k) for nu, a in enumerate(cols[-1])
        ))
    return np.array(cols).T * (-1.0) ** (np.arange(len(cols)) // 2)


_HANKEL = _hankel_coefficients()


def _hankel_j0_j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J0 and J1 on ascending x > X0 from Hankel's expansion (DLMF 10.17.3).

    J_nu = sqrt(2/(pi x)) (P_nu cos w - Q_nu sin w), w = x - nu pi/2 - pi/4,
    P_nu = sum_k (-1)^k a_2k x^-2k and Q_nu = sum_k (-1)^k a_2k+1 x^-2k-1,
    both cut past the first k with |a_k| x^-k <= ALIAS_TOL at the block's
    smallest x; for nu <= 1 each remainder is below its first dropped
    term (DLMF 10.17(iii)). cos w and sin w of both orders come from one
    cos x and one sin x.
    """
    dropped = np.abs(_HANKEL).max(axis=0) <= ALIAS_TOL * float(x[0]) ** np.arange(_HANKEL.shape[1])
    half = (int(np.argmax(dropped)) + 1) // 2
    # rows P0, Q0, P1, Q1, each in powers of x^-2
    coeffs = np.stack([row[parity:2 * half:2] for row in _HANKEL for parity in (0, 1)])
    y = 1.0 / (x * x)
    pq = np.empty((4, x.size))
    pq[:] = coeffs[:, -1:]
    for k in range(half - 2, -1, -1):
        pq *= y
        pq += coeffs[:, k:k + 1]
    pq[1::2] /= x
    cos_x, sin_x = np.cos(x), np.sin(x)
    plus = cos_x + sin_x      # sqrt 2 cos w_0 = -sqrt 2 sin w_1
    minus = sin_x - cos_x     # sqrt 2 sin w_0 = sqrt 2 cos w_1
    scale = np.sqrt(1.0 / (math.pi * x))
    j0 = pq[0] * plus
    j0 -= pq[1] * minus
    j0 *= scale
    j1 = pq[2] * minus
    j1 += pq[3] * plus
    j1 *= scale
    return j0, j1


def _bessel_rows(orders: list[int], nodes: np.ndarray) -> np.ndarray:
    """J_n(nodes) for each of the distinct non-negative orders, one row each.

    ``nodes`` ascend. Nodes up to max(max(orders), X0) take the trapezoid
    rule on Bessel's integral (``_trapezoid_rows``), except those where
    Kapteyn's bound puts every requested order below ALIAS_TOL, which
    are 0. Past that point every requested order sits below r, where the
    forward recurrence J_{k+1} = (2k/r) J_k - J_{k-1} is stable (Gautschi,
    SIAM Review 9, 1967); it starts from J0 and J1 of Hankel's expansion
    (``_hankel_j0_j1``) and runs over BESSEL_BLOCK nodes at a time, so its
    work arrays stay small. Neither kernel calls lacuna.bessel.

    Measured, max absolute difference: 7.0e-14 from scipy.special.jv on
    the r_max = 4000 grid for every order 0..532 and 1.8e-14 on a sample
    of the r_max = 40000 grid for orders 0..40; 7.0e-15 from
    lacuna.bessel on nodes up to 1e4 for orders up to 1200; 7.5e-16 from
    mpmath at x in {n - 3.3, n, n + 2.7}, n <= 532. The tests hold each
    to BESSEL_FACTOR_ERR or tighter.
    """
    top, low = max(orders), min(orders)
    row_of = {n: i for i, n in enumerate(orders)}
    out = np.empty((len(orders), nodes.size))
    split = int(np.searchsorted(nodes, max(top, X0), "right"))
    start = 0
    if low > 0:
        below = nodes[:np.searchsorted(nodes, low)]
        with np.errstate(divide="ignore"):
            start = int(np.count_nonzero(_kapteyn_log(low, below) <= _LOG_ALIAS_TOL))
        out[:, :start] = 0.0
    if start < split:
        _trapezoid_rows(orders, nodes[start:split], out[:, start:split])
    for lo in range(split, nodes.size, BESSEL_BLOCK):
        x = nodes[lo:lo + BESSEL_BLOCK]
        cols = slice(lo, lo + x.size)
        two_over_x = 2.0 / x
        prev, cur = _hankel_j0_j1(x)
        nxt = np.empty_like(x)
        for k in range(top + 1):  # prev holds J_k, cur J_{k+1}
            if k in row_of:
                out[row_of[k], cols] = prev
            np.multiply(two_over_x, k + 1, out=nxt)
            nxt *= cur
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
    return out


@functools.lru_cache(maxsize=48)
def _order_on_grid(order: int, r_max: float) -> np.ndarray:
    nodes, _ = _panel_grid(r_max)
    values = _bessel_rows([order], nodes)[0]
    values.setflags(write=False)
    return values


def _product_on_grid(orders: tuple[int, ...], r_max: float) -> float:
    _, rw = _panel_grid(r_max)
    prod = rw.copy()
    for n in orders:
        prod *= _order_on_grid(n, r_max)
    return float(np.sum(prod))


def tail_bound(r_max: float, top: int) -> float:
    """Bound on the integral over [r_max, inf) for orders <= top < r_max.

    For x > n, J_n^2 <= J_n^2 + Y_n^2 <= 2 / (pi sqrt(x^2 - n^2)) (Watson
    13.74, DLMF 10.18); this integrates x (2/pi)^3 (x^2 - top^2)^(-3/2).
    """
    return TAIL_COEFF / math.sqrt(r_max * r_max - top * top)


def _i0(z: float) -> float:
    """I_0(z) from its positive power series sum (z^2/4)^k / (k!)^2 (DLMF 10.25.2).

    Past k = z each term is at most a quarter of the last, so the terms
    dropped after one below u^2 sum to less than u^2 / 3 of I_0 >= 1.
    """
    quarter, terms = 0.25 * z * z, [1.0]
    while len(terms) <= z or terms[-1] > UNIT_ROUNDOFF**2:
        k = len(terms)
        terms.append(terms[-1] * quarter / (k * k))
    return math.fsum(terms)


@functools.lru_cache(maxsize=16)
def _disc_bound(r_max: float) -> float:
    """Gauss-Legendre error of the pass against the integral over [0, r_max].

    A panel of half-width h and centre c maps t in [-1, 1] to r = c + h t.
    On the Bernstein ellipse E_rho, of semi-axes a and b, |r| <= c + h a
    and, by Bessel's integral (DLMF 10.9.2), |J_n(z)| <= I_0(|Im z|)
    <= I_0(h b). With M the bound on r J...J, an m-node rule errs by at
    most (64/15) M rho^(2-2m) / (rho^2 - 1) (Trefethen, ATAP Thm 19.3),
    times h per panel; the panel centres average r_max / 2.
    """
    n_panels = math.ceil(r_max / PANEL_WIDTH)
    h, rho = 0.5 * r_max / n_panels, ELLIPSE_RHO
    a, b = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
    rule = (64.0 / 15.0) * rho ** (2 - 2 * GL_ORDER) / (rho * rho - 1.0)
    return n_panels * h * (0.5 * r_max + h * a) * rule * _i0(h * b) ** 6


@functools.lru_cache(maxsize=4)
def _landau_envelope(r_max: float) -> np.ndarray:
    """min(1, LANDAU_C r^(-1/3)) on every node, which no top order changes."""
    nodes, _ = _panel_grid(r_max)
    env = np.minimum(1.0, LANDAU_C / np.cbrt(nodes))
    env.setflags(write=False)
    return env


@functools.lru_cache(maxsize=64)
def _eval_bound(r_max: float, top: int) -> float:
    """Error of the computed pass against the exact rule, orders <= top.

    Assumed: each computed factor lies within BESSEL_FACTOR_ERR of J_n at
    its rounded node, which lies within 8u r of the exact node, and
    |J_n'| <= 1, so d = BESSEL_FACTOR_ERR + 8u r. Proven: every factor is
    at most E = min(1, LANDAU_C r^(-1/3)) and, for r > top, the envelope
    of tail_bound. So a node's product errs by at most 6 d (E + d)^5, and
    rounding the weights, products and the sum of n terms adds at most
    gamma_(n+16) sum w r (E + d)^6 (Higham, ASNA, ch. 3-4).
    """
    nodes, rw = _panel_grid(r_max)
    k = (nodes.size + 16) * UNIT_ROUNDOFF
    # sum of rw (E + d)^5 (6 d + k/(1-k) (E + d)), computed in place with
    # the same roundings as the plain expression: a grid-sized array is
    # 4 MB at r_max 40000, and at most three are alive at once here
    env = nodes * nodes
    env -= top * top
    np.maximum(env, 1.0e-300, out=env)  # r <= top: no modulus envelope
    np.sqrt(env, out=env)
    env *= math.pi
    np.divide(2.0, env, out=env)
    np.sqrt(env, out=env)
    np.minimum(_landau_envelope(r_max), env, out=env)
    d = (8.0 * UNIT_ROUNDOFF) * nodes
    d += BESSEL_FACTOR_ERR
    env += d                            # E + d
    d *= 6.0
    rounding = env * (k / (1.0 - k))
    rounding += d
    env **= 5
    env *= rw
    env *= rounding
    return float(np.sum(env))


def quad_bound(r_max: float, top: int) -> float:
    """Proven error of the one pass on [0, r_max] for orders <= top: disc + eval.

    It refuses an r_max outside [MIN_R_MAX, MAX_R_MAX] or at or below top
    before it, or any caller, builds a grid.
    """
    if not (MIN_R_MAX <= r_max < math.inf and r_max > top):
        raise RangeError(f"r_max must be finite, >= {MIN_R_MAX} and > order {top}, got {r_max!r}")
    if r_max > MAX_R_MAX:
        raise RangeError(f"r_max {r_max!r} exceeds {MAX_R_MAX}, the largest supported grid")
    return _disc_bound(r_max) + _eval_bound(r_max, top)


def i_direct(
    index: tuple[int, int, int, int, int, int],
    *,
    r_max: float = DEFAULT_R_MAX,
) -> IntegralValue:
    """Direct quadrature of the sextet integral, the table route's oracle.

    The one door to the direct route. It checks ``index`` in one pass:
    six orders, each through ``check_int`` on [-MAX_SEXTET_ORDER,
    MAX_SEXTET_ORDER]. J_{-n} = (-1)^n J_n turns the signs into one
    parity factor, and the value of the sorted moduli comes from a memo,
    so a repeated sextet, in any order and with any signs, costs one lookup.
    On a memo miss, one pass of Gauss-Legendre panels of width <= pi/4
    on [0, r_max] > N, the largest order, computes it; its bound,
    quad_bound + tail_bound, is proven before the pass, and quad_bound
    refuses a bad r_max. Bessel factors come from this module's numpy
    kernel (see ``_bessel_rows``), within 7.0e-14 of scipy's jv on the
    default grid.
    """
    if len(index) != 6:
        raise RangeError(f"need exactly six orders, got {len(index)}")
    moduli, odd = [], 0
    for v in index:
        n = check_int(v, "order", -MAX_SEXTET_ORDER, MAX_SEXTET_ORDER)
        moduli.append(abs(n))
        if n < 0:
            odd ^= n & 1
    moduli.sort()
    base = _direct_memo(tuple(moduli), r_max)
    if odd:
        return IntegralValue(-base.value, base.error_bound)
    return base


@functools.lru_cache(maxsize=16384)
def _direct_memo(moduli: tuple[int, ...], r_max: float) -> IntegralValue:
    """The direct value of six ascending moduli that ``i_direct`` checked."""
    bound = quad_bound(r_max, moduli[-1]) + tail_bound(r_max, moduli[-1])
    return IntegralValue(_product_on_grid(moduli, r_max), bound)


@dataclass(frozen=True)
class RatioValue:
    """The ratio I(0,...,0) / I(n1,n1,n2,n2,n3,n3) with its interval.

    ``lo`` divides the numerator's lower end by the denominator's upper
    end, so certificate checks consuming it hold under worst-case error.
    """

    value: float
    lo: float
    hi: float


def f_ratio(
    n1: int,
    n2: int,
    n3: int,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> RatioValue:
    """Interaction-strength ratio F; direct route on both operands.

    The table route's 1e-2 gap is far too coarse for the threshold
    comparisons downstream (it would wash out margins of order 1e-1), so
    both numerator and denominator use the direct quadrature. The
    denominator goes to ``i_direct`` as given, which checks and sorts its
    orders, and comes first, so an r_max at or below them is refused
    before any grid is built.
    """
    den = i_direct((n1, n1, n2, n2, n3, n3), r_max=r_max)
    num = i_direct((0, 0, 0, 0, 0, 0), r_max=r_max)
    if den.lo <= 0.0:
        raise QuadratureError(
            f"denominator interval [{den.lo}, {den.hi}] touches zero; "
            f"no finite ratio interval exists"
        )
    return RatioValue(
        value=num.value / den.value,
        lo=num.lo / den.hi,
        hi=num.hi / den.lo,
    )


def c_opt(*, r_max: float = DEFAULT_R_MAX) -> IntegralValue:
    """The sharp-constant candidate (2 pi)^4 * I(0,...,0)."""
    base = i_direct((0, 0, 0, 0, 0, 0), r_max=r_max)
    scale = (2.0 * math.pi) ** 4
    return IntegralValue(scale * base.value, scale * base.error_bound)


@dataclass(frozen=True)
class DiagonalSweep:
    """Direct-route values of every diagonal integral with orders <= n_max.

    ``direct[k, m, n]`` is the one pi/4-panel pass of I(k,k,m,m,n,n) on
    [0, r_max], read at sorted orders only; ``quad_diff`` is the proven
    quad_bound(r_max, n_max) of every entry, to which error_bound adds
    tail_bound(r_max, n_max).
    Truncation only discards a non-negative integrand, so the one-sided
    enclosure is [direct - quad_diff, direct + quad_diff + tail].
    """

    n_max: int
    direct: np.ndarray
    quad_diff: float
    r_max: float

    @property
    def error_bound(self) -> float:
        return self.quad_diff + tail_bound(self.r_max, self.n_max)

    def value(self, k: int, m: int, n: int) -> float:
        a, b, c = sorted(abs(check_int(v, "order", -self.n_max, self.n_max)) for v in (k, m, n))
        return float(self.direct[a, b, c])

    def ratio_lo(self, k: int, m: int, n: int) -> float:
        """Worst-case lower end of F(k,m,n) from this sweep's enclosures."""
        num = self.direct[0, 0, 0]
        e = self.error_bound
        return (num - e) / (self.value(k, m, n) + e)


def _diagonal_stack(n_max: int, r_max: float) -> np.ndarray:
    """G[k, m, n] = sum_r w_r r_r J_k^2 J_m^2 J_n^2 on the panel grid.

    One BESSEL_BLOCK of nodes at a time: the Bessel rows of the block,
    the weighted products J_k^2 J_m^2 of the sorted pairs k <= m only,
    and their product with every J_n^2 added into a small accumulator,
    which is mirrored in (k, m) at the end. No array spans the grid.
    """
    nodes, rw = _panel_grid(r_max)
    count = n_max + 1
    orders = list(range(count))
    pairs = [(k, m) for k in orders for m in orders[k:]]
    acc = np.zeros((len(pairs), count))
    prod = np.empty((len(pairs), BESSEL_BLOCK))
    for lo in range(0, nodes.size, BESSEL_BLOCK):
        j2 = _bessel_rows(orders, nodes[lo:lo + BESSEL_BLOCK])
        np.multiply(j2, j2, out=j2)
        w = rw[lo:lo + BESSEL_BLOCK]
        p = prod[:, :w.size]
        row = 0
        for k in orders:  # rows row.. hold the pairs (k, k..n_max)
            np.multiply(j2[k:], j2[k] * w, out=p[row:row + count - k])
            row += count - k
        acc += p @ j2.T
    out = np.empty((count, count, count))
    for (k, m), g in zip(pairs, acc):
        out[k, m] = out[m, k] = g
    return out


def sweep_diagonal(
    n_max: int = SWEEP_N_MAX,
    *,
    r_max: float = SWEEP_R_MAX,
) -> DiagonalSweep:
    """Direct-route quadrature of all diagonal triples with orders <= n_max.

    One pi/4 pass, bounded as in i_direct before any grid is built,
    with one matrix product of the sorted order pairs per block of nodes
    in place of ~n_max^3/6 independent quadratures. Computed on every
    call and never stored: the result depends on the arguments alone.
    """
    n_max = check_int(n_max, "n_max", 0, SWEEP_MAX_N)
    quad = quad_bound(r_max, n_max)
    direct = _diagonal_stack(n_max, r_max)
    direct.setflags(write=False)
    return DiagonalSweep(n_max, direct, quad, r_max)
