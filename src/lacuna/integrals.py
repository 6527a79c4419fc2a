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
  nodes r <= max(n, X0), and the forward recurrence on nodes
  r > max(n, X0), where it is stable, started from Hankel's J0 and J1
  on chunks that begin at the first node past X0. A row depends on its
  order and the nodes alone, so one pass of the recurrence serves every
  order of a run (``fill_grid_rows``, which ``check_systems`` calls
  before its first F) with the bits each row has when built alone. They
  agree with ``scipy.special.jv`` to 7.0e-14 absolute on the
  r_max = 4000 grid for every order 0..532, and with mpmath to 4.5e-15
  at x near n for n up to 532; the tests check the per-factor
  assumption BESSEL_FACTOR_ERR = 1e-12 against both, and against
  lacuna.bessel up to order 1200. The run needs numpy alone.

The two routes share no Bessel code, so their agreement is a genuine
cross-check rather than a reproducibility statement.

Beside ``f_ratio``, the interval of F(a,b,c) = I(0,...,0) /
I(a,a,b,b,c,c), sits the one table of F's floors: the ``F_FLOOR_*``
lower bounds by shape, ``f_lower``, which takes the larger of the shape's
floor and the proven ``f_ratio(...).lo``, and ``SWEEP_FLOORS``, the
window on which ``integrals sweep`` checks each floor it reports. The
floors' comments name the check behind each one.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .bessel import besselj, besselj_batch, j1_zeros
from .errors import RangeError, check_int

GL_ORDER = 10
PANEL_WIDTH = math.pi / 4.0          # under the product's oscillation scale
TAIL_COEFF = (2.0 / math.pi) ** 3
ORDER_GUARANTEE_CAP = 532            # table gap bound certified up to here
TABLE_GAP = 1.0e-2                   # one-sided gap bound of the table route
MAX_SEXTET_ORDER = 532
DEFAULT_R_MAX = 4000.0
SWEEP_N_MAX = 40                     # the diagonal sweep's default grid
# the sweep's ceiling, set by time: n_max 200 takes 68 s and 108 MB peak RSS
# (2-vCPU Xeon; 94 s on one BLAS thread); its (n+1)^3 cube is 1.2 GB at 532
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

    Built in memory on every call, about a tenth of a second, and never
    written to disk. Rows past ORDER_GUARANTEE_CAP would carry no
    certified gap, so ``i_tilde`` could not read them; they are refused.
    """
    order_cap = check_int(order_cap, "order_cap", 0, ORDER_GUARANTEE_CAP)
    zeros = j1_zeros(NODE_COUNT)
    j0_at = besselj(0, zeros)  # |J0| > 0.0142 at every node, smallest at the last
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


def _panel_count(r_max: float) -> int:
    return math.ceil(r_max / PANEL_WIDTH)


def _grid_blocks(r_max: float) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The panel grid on [0, r_max] and its r dr weights, BESSEL_BLOCK nodes at a time.

    The only code that computes grid nodes: it yields (cols, nodes, rw)
    for the nodes cols of the whole grid, block edges at multiples of
    BESSEL_BLOCK from node 0. Each block builds the panels it touches and
    slices them, so its values are those of the whole grid bit for bit.
    """
    n_panels = _panel_count(r_max)
    width = r_max / n_panels
    size = n_panels * GL_ORDER
    for lo in range(0, size, BESSEL_BLOCK):
        hi = min(lo + BESSEL_BLOCK, size)
        first, last = lo // GL_ORDER, -(-hi // GL_ORDER)
        cut = slice(lo - first * GL_ORDER, hi - first * GL_ORDER)
        centers = (np.arange(first, last) + 0.5) * width
        nodes = (centers[:, None] + (0.5 * width) * _GL_NODES[None, :]).ravel()[cut]
        rw = nodes * np.tile(0.5 * width * _GL_WEIGHTS, last - first)[cut]  # r dr weight
        yield slice(lo, hi), nodes, rw


@functools.lru_cache(maxsize=16)
def _panel_grid(r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The whole grid, which the direct route's per-order rows read."""
    size = _panel_count(r_max) * GL_ORDER
    nodes, rw = np.empty(size), np.empty(size)
    for cols, block, w in _grid_blocks(r_max):
        nodes[cols], rw[cols] = block, w
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


def _trapezoid_row(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """out[0] = J_n(x) by the trapezoid rule on Bessel's integral.

    The M = 4q-point rule on J_n(x) = (1/2pi) int_{-pi}^{pi} cos(n t - x sin t) dt
    folds, by the integrand's symmetries, onto q + 1 points t_j = j pi/(2q):
    J_n = (1/q) sum'' cos(n t_j) cos(x sin t_j) for even n and
    sin(n t_j) sin(x sin t_j) for odd n, halving the end terms. It returns
    J_n plus the aliases J_{kM-n} and J_{kM+n}, k >= 1 (Trefethen and
    Weideman, SIAM Review 56, 2014), so q is chosen per block of nodes to
    put M - n at _alias_free_order of the block's largest node. A block's
    trigonometric matrix holds at most TEMP_DOUBLES values.
    """
    trig = np.sin if n % 2 else np.cos

    def quarter(last: float) -> int:  # least q with 4q - n >= the alias-free order
        return -(-(n + _alias_free_order(max(1, math.ceil(last)))) // 4)

    step = max(1, TEMP_DOUBLES // (quarter(x[-1]) + 1))
    for lo in range(0, x.size, step):
        block = x[lo:lo + step]
        q = quarter(block[-1])
        j = np.arange(q + 1)
        rule = np.full(q + 1, 1.0 / q)
        rule[0] = rule[-1] = 0.5 / q
        arg = np.multiply.outer(block, np.sin((math.pi / (2 * q)) * j))
        # n t_j reduced exactly: cos and sin see angles below 2 pi
        turns = np.multiply.outer([n], j) % (4 * q)
        weights = trig((math.pi / (2 * q)) * turns) * rule
        out[:, lo:lo + block.size] = weights @ trig(arg).T


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
_HANKEL_PEAK = np.abs(_HANKEL).max(axis=0)
# rows P0, Q0, P1, Q1, each in powers of x^-2, for each count of kept powers
_HANKEL_STACKS = [
    np.stack([row[parity:2 * half:2] for row in _HANKEL for parity in (0, 1)])
    for half in range(_HANKEL.shape[1] // 2 + 1)
]


def _hankel_j0_j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J0 and J1 on ascending x > X0 from Hankel's expansion (DLMF 10.17.3).

    J_nu = sqrt(2/(pi x)) (P_nu cos w - Q_nu sin w), w = x - nu pi/2 - pi/4,
    P_nu = sum_k (-1)^k a_2k x^-2k and Q_nu = sum_k (-1)^k a_2k+1 x^-2k-1,
    both cut past the first k with |a_k| x^-k <= ALIAS_TOL at the block's
    smallest x; for nu <= 1 each remainder is below its first dropped
    term (DLMF 10.17(iii)). cos w and sin w of both orders come from one
    cos x and one sin x.
    """
    dropped = _HANKEL_PEAK <= ALIAS_TOL * float(x[0]) ** np.arange(_HANKEL.shape[1])
    half = (int(np.argmax(dropped)) + 1) // 2
    coeffs = _HANKEL_STACKS[half]
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

    ``nodes`` ascend, and each row depends only on its order and ``nodes``,
    so a row built with other orders has the bits it has alone. Row n takes
    the trapezoid rule on Bessel's integral (``_trapezoid_row``, its point
    count chosen from n) on nodes up to max(n, X0), except those where
    Kapteyn's bound puts J_n below ALIAS_TOL, which are 0. Past max(n, X0)
    it takes the forward recurrence J_{k+1} = (2k/r) J_k - J_{k-1}, stable
    while k < r (Gautschi, SIAM Review 9, 1967). The recurrence runs on
    chunks of BESSEL_BLOCK nodes that begin at the first node past X0, so
    its work arrays stay small; each chunk starts from J0 and J1 of
    Hankel's expansion (``_hankel_j0_j1``), and its one recurrence serves
    every order, the orders ascending: between two reads a step runs only
    on the nodes past the next order, where that row reads it. Neither
    kernel calls lacuna.bessel.

    Measured, max absolute difference: 7.0e-14 from scipy.special.jv on
    the r_max = 4000 grid for every order 0..532 (order 239 at
    r = 3841.9) and 1.8e-14 on a sample of the r_max = 40000 grid for
    orders 0..40; 7.0e-15 from
    lacuna.bessel on nodes up to 1e4 for orders up to 1200; 3.5e-15 from
    mpmath at x in {n - 3.3, n, n + 2.7} for every n <= 532, and 4.5e-15
    at the r_max = 4000 grid nodes nearest them. The tests hold each to
    BESSEL_FACTOR_ERR or tighter.
    """
    out = np.empty((len(orders), nodes.size))
    splits = np.searchsorted(nodes, np.maximum(orders, X0), "right").tolist()
    for i, (n, split) in enumerate(zip(orders, splits)):
        start = 0
        if n > 0 and split:
            below = nodes[:np.searchsorted(nodes, n)]
            with np.errstate(divide="ignore"):
                start = int(np.count_nonzero(_kapteyn_log(n, below) <= _LOG_ALIAS_TOL))
            out[i, :start] = 0.0
        if start < split:
            _trapezoid_row(n, nodes[start:split], out[i:i + 1, start:split])
    rising = sorted(range(len(orders)), key=orders.__getitem__)
    ranked = [orders[i] for i in rising]
    for lo in range(int(np.searchsorted(nodes, X0, "right")), nodes.size, BESSEL_BLOCK):
        x = nodes[lo:lo + BESSEL_BLOCK]
        prev, cur = _hankel_j0_j1(x)
        nxt, two_over_x = np.empty_like(x), 2.0 / x
        k = cut = 0  # prev holds J_k, cur J_{k+1}, on the chunk's nodes from cut
        # row n reads the nodes past n
        for i, n, past in zip(rising, ranked, np.searchsorted(x, ranked, "right").tolist()):
            if past == x.size:
                break
            if past > cut:
                prev, cur, nxt, two_over_x = (v[past - cut:] for v in (prev, cur, nxt, two_over_x))
                cut = past
            while k < n:
                np.multiply(two_over_x, k + 1, out=nxt)
                nxt *= cur
                nxt -= prev
                prev, cur, nxt = cur, nxt, prev
                k += 1
            out[i, lo + cut:lo + x.size] = prev
    return out


# whole-grid rows of the direct route by (order, r_max), least recently used first
_GRID_ROWS: dict[tuple[int, float], np.ndarray] = {}


def _grid_rows(orders: list[int], r_max: float) -> list[np.ndarray]:
    """Whole-grid rows of distinct orders; one ``_bessel_rows`` pass builds those not held.

    The 48 most recently used rows are kept.
    """
    missing = [n for n in orders if (n, r_max) not in _GRID_ROWS]
    if missing:
        built = _bessel_rows(missing, _panel_grid(r_max)[0])
        built.setflags(write=False)
        _GRID_ROWS.update(((n, r_max), row) for n, row in zip(missing, built))
    rows = [_GRID_ROWS.pop((n, r_max)) for n in orders]
    _GRID_ROWS.update(((n, r_max), row) for n, row in zip(orders, rows))
    while len(_GRID_ROWS) > 48:
        del _GRID_ROWS[next(iter(_GRID_ROWS))]
    return rows


def fill_grid_rows(orders: Iterable[int], r_max: float) -> None:
    """Build the direct route's rows of every order a run will read, in one pass.

    A run that knows its orders calls this before its first sextet: one
    Hankel start and one recurrence per chunk then serve them all, where
    ``i_direct`` would build each row on its first use. The rows are the
    same bits either way, and signs do not matter, as in ``i_direct``.
    Moduli that ``i_direct`` refuses, past MAX_SEXTET_ORDER or at or above
    r_max, and an r_max outside [MIN_R_MAX, MAX_R_MAX] build nothing, so
    ``i_direct`` still reports them.
    """
    if MIN_R_MAX <= r_max <= MAX_R_MAX:
        moduli = {abs(n) for n in orders}
        _grid_rows(sorted(n for n in moduli if n <= MAX_SEXTET_ORDER and n < r_max), r_max)


def _product_on_grid(orders: tuple[int, ...], r_max: float) -> float:
    _, rw = _panel_grid(r_max)
    distinct = list(dict.fromkeys(orders))
    row = dict(zip(distinct, _grid_rows(distinct, r_max)))
    first, *rest = orders
    prod = np.multiply(rw, row[first])
    for n in rest:
        prod *= row[n]
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
    n_panels = _panel_count(r_max)
    h, rho = 0.5 * r_max / n_panels, ELLIPSE_RHO
    a, b = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
    rule = (64.0 / 15.0) * rho ** (2 - 2 * GL_ORDER) / (rho * rho - 1.0)
    return n_panels * h * (0.5 * r_max + h * a) * rule * _i0(h * b) ** 6


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
    terms = np.empty(_panel_count(r_max) * GL_ORDER)
    k = (terms.size + 16) * UNIT_ROUNDOFF
    # rw (E + d)^5 (6 d + k/(1-k) (E + d)) per node, computed a block at a
    # time in place with the same roundings as the plain expression, into
    # the one grid-length array (4 MB at r_max 40000) that one sum reads
    for cols, nodes, rw in _grid_blocks(r_max):
        env = terms[cols]
        np.multiply(nodes, nodes, out=env)
        env -= top * top
        np.maximum(env, 1.0e-300, out=env)  # r <= top: no modulus envelope
        np.sqrt(env, out=env)
        env *= math.pi
        np.divide(2.0, env, out=env)
        np.sqrt(env, out=env)
        np.minimum(np.minimum(1.0, LANDAU_C / np.cbrt(nodes)), env, out=env)
        d = (8.0 * UNIT_ROUNDOFF) * nodes
        d += BESSEL_FACTOR_ERR
        env += d                            # E + d
        d *= 6.0
        rounding = env * (k / (1.0 - k))
        rounding += d
        env **= 5
        env *= rw
        env *= rounding
    return float(np.sum(terms))


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
    ``hi`` is ``math.inf`` where the denominator's interval reaches zero.
    """

    value: float
    lo: float
    hi: float


def _ratio(num: IntegralValue, den: IntegralValue) -> RatioValue:
    # F's one enclosure formula; hi is unbounded where den's interval reaches 0
    return RatioValue(
        value=num.value / den.value,
        lo=num.lo / den.hi,
        hi=num.hi / den.lo if den.lo > 0.0 else math.inf,
    )


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
    before any grid is built. The denominator's integrand is nonnegative,
    so I > 0 and ``den.hi > 0``: ``lo`` is proven even where ``den.lo``
    is not positive, and there ``hi`` is unbounded.
    """
    den = i_direct((n1, n1, n2, n2, n3, n3), r_max=r_max)
    num = i_direct((0, 0, 0, 0, 0, 0), r_max=r_max)
    return _ratio(num, den)


# F's floors: strict lower bounds for F(a,b,c) by the shape of (a,b,c),
# recorded from the paper. Each is checked on a finite window only, named
# in its comment, and is an assumption beyond it: `integrals sweep` checks
# the first six on the windows of SWEEP_FLOORS, and only the test
# test_member_floors_from_sweep checks the two member floors, on orders
# <= 40. Those hold on 3-separated moduli (each nonzero modulus more than
# three times the next, as in every lacunary spectrum). `f_lower` reads
# every floor but the pair and distinct ones, which only the sweep reads.
F_FLOOR_SINGLE = 5.0            # (n,0,0), n >= 1, equal at n = 1; sweep, n <= n_max
F_FLOOR_PAIR0 = 7.94            # (n,n,0), n >= 1; sweep, n <= 20
F_FLOOR_PAIR0_HIGH = 10.8       # (n,n,0), n >= 3; sweep, n <= 21
F_FLOOR_TRIPLE = 3.2            # (n,n,n), n >= 1; sweep, n <= n_max
F_FLOOR_PAIR = 10.0             # (n,n,m), n != m >= 1, not (1,1,2); sweep, n, m <= 30
F_FLOOR_DISTINCT = 18.0         # (n,m,k), n > m > k >= 0, not (3,2,0); sweep, n <= 30
F_FLOOR_PAIR_MEMBER = 13.2      # (n,n,m), n != m >= 1, 3-separated; test, n, m <= 40
F_FLOOR_DISTINCT_MEMBER = 21.0  # (n,m,k), n > m > k >= 0, 3-separated; test, n <= 40

# The sweep's families in report order: a label whose one {} field the floor
# fills, the floor, and the window of triples checked at n_max = top, which
# holds a point for every top >= SWEEP_MIN_N.
SWEEP_MIN_N = 3
SWEEP_FLOORS = (
    ("single (n,0,0) > {:g}, 2 <= n", F_FLOOR_SINGLE,
     lambda top: [(n, 0, 0) for n in range(2, top + 1)]),
    ("pair-zero (n,n,0) > {:g}", F_FLOOR_PAIR0,
     lambda top: [(n, n, 0) for n in range(1, min(20, top) + 1)]),
    ("pair-zero (n,n,0) > {:g}, 3 <= n", F_FLOOR_PAIR0_HIGH,
     lambda top: [(n, n, 0) for n in range(3, min(21, top) + 1)]),
    ("diagonal (n,n,n) > {:g}", F_FLOOR_TRIPLE,
     lambda top: [(n, n, n) for n in range(1, top + 1)]),
    ("pair (n,n,m) > {:g}, n != m, not {{1,1,2}}", F_FLOOR_PAIR,
     lambda top: [
         (n, n, m)
         for n in range(1, min(30, top) + 1)
         for m in range(1, min(30, top) + 1)
         if n != m and (n, m) != (1, 2)
     ]),
    ("distinct (n,m,k) > {:g}, not (3,2,0)", F_FLOOR_DISTINCT,
     lambda top: [
         (n, m, k)
         for n in range(1, min(30, top) + 1)
         for m in range(n)
         for k in range(m)
         if (n, m, k) != (3, 2, 0)
     ]),
)


def f_lower(m1: int, m2: int, m3: int, r_max: float = DEFAULT_R_MAX) -> float:
    """A lower bound for F on these moduli; signs and order do not matter.

    The larger of the floor of the triple's shape and, up to the direct
    route's order cap, ``f_ratio(n, m, k).lo``, which is proven even
    where F's interval has no finite upper end. A pair or distinct triple
    takes its member floor on 3-separated moduli only; elsewhere the
    floor is 0, as F > 0.
    """
    n, m, k = sorted((abs(m1), abs(m2), abs(m3)), reverse=True)
    if n == 0:
        floor = 1.0
    elif m == 0:                         # (n, 0, 0)
        floor = F_FLOOR_SINGLE
    elif n == m == k:
        floor = F_FLOOR_TRIPLE
    elif n == m and k == 0:
        floor = F_FLOOR_PAIR0_HIGH if n >= 3 else F_FLOOR_PAIR0
    else:                                # a pair (p, p, q) or a distinct triple
        mods = sorted({n, m, k} - {0})
        if not all(hi > 3 * lo for lo, hi in zip(mods, mods[1:])):
            floor = 0.0
        elif n == m or m == k:
            floor = F_FLOOR_PAIR_MEMBER
        else:
            floor = F_FLOOR_DISTINCT_MEMBER
    if n > MAX_SEXTET_ORDER:
        return floor
    return max(floor, f_ratio(n, m, k, r_max=r_max).lo)


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

    def ratio(self, k: int, m: int, n: int) -> RatioValue:
        """F(k,m,n) with its interval from this sweep's enclosures, as f_ratio builds it."""
        e = self.error_bound
        return _ratio(IntegralValue(self.value(0, 0, 0), e), IntegralValue(self.value(k, m, n), e))


def _diagonal_stack(n_max: int, r_max: float) -> np.ndarray:
    """G[k, m, n] = sum_r w_r r_r J_k^2 J_m^2 J_n^2 on the panel grid.

    One BESSEL_BLOCK of nodes at a time: the Bessel rows of the block,
    then one order k at a time, the weighted products J_k^2 J_m^2 for
    m >= k only, whose product with every J_n^2 is added into out[k, k:].
    The half m < k is copied from m > k once, at the end. No array spans
    the grid, here or anywhere in the sweep: nodes and weights come a
    block at a time from ``_grid_blocks``, and the one grid-length array,
    the terms of ``_eval_bound``, is freed once summed, before this runs.
    Beside the cube, no array holds more than one block's n_max + 1 rows.
    """
    count = n_max + 1
    orders = list(range(count))
    out = np.zeros((count, count, count))
    for _, nodes, w in _grid_blocks(r_max):
        j2 = _bessel_rows(orders, nodes)
        np.multiply(j2, j2, out=j2)
        for k in orders:
            out[k, k:] += (j2[k:] * (j2[k] * w)) @ j2.T
    for k in orders:
        out[k + 1:, k] = out[k, k + 1:]
    return out


def sweep_diagonal(
    n_max: int = SWEEP_N_MAX,
    *,
    r_max: float = SWEEP_R_MAX,
) -> DiagonalSweep:
    """Direct-route quadrature of all diagonal triples with orders <= n_max.

    One pi/4 pass, bounded as in i_direct before any grid is built,
    with one matrix product per order per block of nodes in place of
    ~n_max^3/6 independent quadratures. Computed on every call and never
    stored: the result depends on the arguments alone.
    """
    n_max = check_int(n_max, "n_max", 0, SWEEP_MAX_N)
    quad = quad_bound(r_max, n_max)
    direct = _diagonal_stack(n_max, r_max)
    direct.setflags(write=False)
    return DiagonalSweep(n_max, direct, quad, r_max)
