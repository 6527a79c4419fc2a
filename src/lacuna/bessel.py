"""Integer-order Bessel functions of the first kind, and zeros of J1.

Two evaluation regimes, chosen per call:

* ascending power series for small argument (x <= max(12, n/2)), summed
  with compensated (Kahan) accumulation;
* Miller's downward recurrence for everything else, normalized through
  the identity J0(x)^2 + 2*sum_{k>=1} Jk(x)^2 = 1, with periodic
  rescaling so the unnormalized recurrence never overflows.

One recurrence, ``_miller``, records J_0..J_n in a single pass:
``besselj`` takes entry n, ``besselj_batch`` returns the whole row, and
the J1 zero finder reads entries 0 and 1, so a scalar value in the
recurrence regime is bitwise equal to its batch entry.

The guaranteed box is |n| <= 1200, 0 <= x <= 1e4, with absolute error
at most 1e-12.  Negative orders reduce through J_{-n} = (-1)^n J_n and
are therefore bitwise consistent with their positive mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, RangeError, ZeroFindingError

MAX_ORDER = 1200
MAX_ARG = 1.0e4
MAX_ZEROS = 5000

# Power series below this argument (or below half the order: for
# x <= n/2 the series has no damaging cancellation in absolute terms).
SERIES_SWITCH = 12.0

# Downward recurrence starts at n_max + ceil(START_SLOPE*x) + START_OFFSET.
START_SLOPE = 1.3
START_OFFSET = 40

# Refinement target for zeros of J1.
ZERO_TOL = 1.0e-13

_RESCALE = 1.0e150
_RESCALE_INV = 1.0e-150


def _validate(n: int, x: float) -> None:
    if not isinstance(n, (int, np.integer)):
        raise RangeError(f"order must be an integer, got {n!r}")
    if abs(int(n)) > MAX_ORDER:
        raise RangeError(f"order {n} outside |n| <= {MAX_ORDER}")
    if not math.isfinite(x):
        raise RangeError(f"argument must be finite, got {x!r}")
    if x < 0.0 or x > MAX_ARG:
        raise RangeError(f"argument {x} outside [0, {MAX_ARG:g}]")


def _series(n: int, x: float) -> float:
    # J_n(x) = sum_j (-1)^j (x/2)^{n+2j} / (j! (n+j)!), n >= 0.
    # First term in log space so large n cannot overflow the power.
    half = 0.5 * x
    log_t0 = n * math.log(half) - math.lgamma(n + 1.0)
    if log_t0 < -400.0:
        # |J_n| < 1e-170 in this regime; well below the 1e-12 contract.
        return 0.0
    t = math.exp(log_t0)
    q = half * half
    s = t
    comp = 0.0  # Kahan compensation
    t_peak = abs(t)
    for j in range(1, 1001):
        t *= -q / (j * (n + j))
        y = t - comp
        u = s + y
        comp = (u - s) - y
        s = u
        at = abs(t)
        if at > t_peak:
            t_peak = at
        elif at <= 1.0e-17 * t_peak:
            # Terms are past their peak and negligible; the omitted
            # tail is below |t| because the ratio keeps shrinking.
            return s
    raise EvaluationError(f"series for J_{n}({x}) did not settle in 1000 terms")


def _miller(n_max: int, x: float) -> np.ndarray:
    # The one downward pass: records J_0..J_{n_max}; x > 0.
    n_start = n_max + int(math.ceil(START_SLOPE * x)) + START_OFFSET
    out = np.zeros(n_max + 1)
    p_up = 0.0
    p = 1.0
    ssum = 0.0
    two_over_x = 2.0 / x
    for k in range(n_start, 0, -1):
        if k <= n_max:
            out[k] = p
        ssum += p * p
        p_up, p = p, (k * two_over_x) * p - p_up
        if abs(p) > _RESCALE:
            p *= _RESCALE_INV
            p_up *= _RESCALE_INV
            ssum *= _RESCALE_INV * _RESCALE_INV
            out *= _RESCALE_INV
    out[0] = p
    ssum = 2.0 * ssum + p * p
    if not (ssum > 0.0 and math.isfinite(ssum)):
        raise EvaluationError(f"recurrence normalization failed for (n_max={n_max}, x={x})")
    out /= math.sqrt(ssum)
    return out


def _j0_j1(x: float) -> tuple[float, float]:
    # Both orders for zero refinement; x > 0.
    if x <= SERIES_SWITCH:
        return _series(0, x), _series(1, x)
    j = _miller(1, x)
    return float(j[0]), float(j[1])


def besselj(n: int, x: float) -> float:
    """Evaluate J_n(x) for integer n.

    Absolute error is at most 1e-12 inside the box |n| <= 1200,
    0 <= x <= 1e4.  J_{-n}(x) returns exactly (-1)^n * J_n(x).
    """
    _validate(n, float(x))
    n = int(n)
    x = float(x)
    n_abs = abs(n)
    sign = -1.0 if (n < 0 and n_abs % 2 == 1) else 1.0
    if x == 0.0:
        return sign * (1.0 if n_abs == 0 else 0.0)
    if x <= max(SERIES_SWITCH, 0.5 * n_abs):
        return sign * _series(n_abs, x)
    return sign * float(_miller(n_abs, x)[n_abs])


def besselj_batch(n_max: int, x: float) -> np.ndarray:
    """Evaluate [J_0(x), ..., J_{n_max}(x)] in a single downward pass.

    Entries agree with ``besselj`` to 1e-12 absolute.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise RangeError(f"n_max must be a non-negative integer, got {n_max!r}")
    _validate(int(n_max), float(x))
    n_max = int(n_max)
    x = float(x)
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return _miller(n_max, x)


@dataclass(frozen=True)
class ZeroSequence:
    """Zeros of J1 in increasing order, with sigma_0 = 0 included.

    ``zeros[r]`` is the r-th zero; every positive entry satisfies
    |J1(zero)| <= ``tol``.
    """

    zeros: np.ndarray
    tol: float = ZERO_TOL

    def __post_init__(self) -> None:
        self.zeros.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.zeros)


def _mcmahon_j1(r: int) -> float:
    # Large-root expansion for the r-th positive zero of J1.
    beta = (r + 0.25) * math.pi
    b2 = beta * beta
    return beta - 0.375 / beta + (3.0 / 128.0) / (beta * b2) - 0.23025 / (beta * b2 * b2)


def j1_zeros(count: int, tol: float = ZERO_TOL) -> ZeroSequence:
    """First ``count`` zeros of J1, counting sigma_0 = 0 as the zeroth.

    Newton iteration (J1' = J0 - J1/x) from the large-root expansion,
    safeguarded by a sign-change bracket and bisection fallback.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise RangeError(f"count must be a positive integer, got {count!r}")
    if count > MAX_ZEROS + 1:
        raise RangeError(f"count {count} exceeds the supported {MAX_ZEROS + 1}")
    zeros = np.zeros(count)
    for r in range(1, count):
        guess = _mcmahon_j1(r)
        a, b = guess - 0.2, guess + 0.2
        fa = _j0_j1(a)[1]
        fb = _j0_j1(b)[1]
        if fa == 0.0:
            zeros[r] = a
            continue
        if fb == 0.0:
            zeros[r] = b
            continue
        if fa * fb > 0.0:
            raise ZeroFindingError(f"no sign change around zero {r} in [{a}, {b}]")
        x = guess
        converged = False
        for _ in range(60):
            j0, j1 = _j0_j1(x)
            if abs(j1) <= tol:
                converged = True
                break
            # Maintain the bracket, then try Newton inside it.
            if j1 * fa < 0.0:
                b = x
            else:
                a, fa = x, j1
            deriv = j0 - j1 / x
            x_next = 0.5 * (a + b)
            if deriv != 0.0:
                newton = x - j1 / deriv
                if a < newton < b:
                    x_next = newton
            x = x_next
        if not converged:
            raise ZeroFindingError(f"zero {r} did not refine to |J1| <= {tol}")
        zeros[r] = x
    return ZeroSequence(zeros=zeros, tol=tol)


def sign_change_certificate(seq: ZeroSequence, delta: float = 1.0e-8) -> bool:
    """Check J1 flips sign across [z - delta, z + delta] at every
    positive zero in ``seq``.  Returns True when all flips hold."""
    for r in range(1, seq.count):
        z = seq.zeros[r]
        left = _j0_j1(z - delta)[1]
        right = _j0_j1(z + delta)[1]
        if not (left * right < 0.0):
            return False
    return True
