"""Integer-order Bessel functions of the first kind, and zeros of J1.

One evaluation path: every J_n(x) is an entry of a row [J_0(x), ...,
J_{n_max}(x)] from Miller's downward recurrence, normalized through the
identity J0(x)^2 + 2*sum_{k>=1} Jk(x)^2 = 1, with periodic rescaling by
a power of two so the unnormalized recurrence never overflows.  Below
TINY_ARG the row is closed-form: J_0 rounds to 1, J_1 to x/2, and every
higher order lies below 1.3e-281.

The recurrence records J_0..J_n in a single pass, in two forms:
``_miller`` runs it for one x, and ``_miller_lanes`` for a 1-D array of
x, one lane per x with its own start, rescaling and normalisation.  A
rescale by a power of two is exact, so its step does not change the
bits: the lane pass scales a lane at the end of the block of steps in
which its values passed the threshold, and every lane is bitwise the
one-x pass's result without being rerun.  ``besselj_batch`` returns the
whole row, ``besselj`` takes entry |n| of it, and the J1 zero finder
reads entries 0 and 1; both entry points take a float or a 1-D array of
x, so a scalar value is bitwise equal to its batch entry and to its
entry in an array call.  A float argument keeps the one-x loop: a lane
pass pays numpy's per-call cost at every step (three calls per step plus
one add, the rest once per block of up to 32 steps), so a single lane
runs 30 to 40 times slower than the loop and only pays off across many
x (the quadrature table, the zero finder).

The guaranteed box is |n| <= 1200, 0 <= x <= 1e4, with absolute error
at most 1e-12.  Negative orders reduce through J_{-n} = (-1)^n J_n and
are therefore bitwise consistent with their positive mirror.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RangeError, ZeroFindingError, check_int

MAX_ORDER = 1200
MAX_ARG = 1.0e4
MAX_ZEROS = 3182                     # positive J1 zeros up to MAX_ARG; the next is 10000.47

# The closed-form row below this argument.  Above it, Miller's growth per
# step, 2 * n_start / x with n_start <= 1241, stays below 1 / _SHRINK =
# 2**498, so one rescale brings p back under _RESCALE.
TINY_ARG = 1.0e-140

# Downward recurrence starts at n_max + ceil(START_SLOPE*x) + START_OFFSET.
START_SLOPE = 1.3
START_OFFSET = 40

# Refinement target for zeros of J1.
ZERO_TOL = 1.0e-13
SIGN_CHANGE_DELTA = 1.0e-8           # half-width of sign_change_certificate's brackets

# Miller's rescale: once |p| passes _RESCALE, the recurrence's values are
# multiplied by _SHRINK and its sum by _SHRINK**2.  Both are powers of two,
# so the products are exact.  A block of the lane pass with more than one
# step lets p grow by at most 2**_GROWTH_BITS, so every square it sums
# stays below _RESCALE**2 * 2**(2 * _GROWTH_BITS) = 2**1022.
_RESCALE = 2.0**200
_SHRINK = 2.0**-498
_GROWTH_BITS = 311


def _validate(x: float) -> None:
    if not math.isfinite(x):
        raise RangeError(f"argument must be finite, got {x!r}")
    if x < 0.0 or x > MAX_ARG:
        raise RangeError(f"argument {x} outside [0, {MAX_ARG:g}]")


def _miller(n_max: int, x: float) -> np.ndarray:
    # The downward pass for one x: records J_0..J_{n_max}; x >= TINY_ARG.
    # Its normalising sum is finite and positive for every such x. A step
    # multiplies |p| by at most 2 * n_start / x + 1, which is largest at
    # TINY_ARG: 2 * 1241 / 1e-140 + 1 < 2**477. So a rescaled p is below
    # 2**(200 + 477 - 498) and every p the sum takes is at most 2**200: the
    # sum, twice at most 14240 squares plus one, stays below 2**415. The
    # first square is 1, and a rescaled p exceeds 2**200 * _SHRINK = 2**-298
    # and is summed after its rescale, so the sum never ends at 0.
    # _miller_lanes gives these bits lane by lane, so the same holds there.
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
            p *= _SHRINK
            p_up *= _SHRINK
            ssum *= _SHRINK * _SHRINK
            out *= _SHRINK
    out[0] = p
    ssum = 2.0 * ssum + p * p
    out /= math.sqrt(ssum)
    return out


def _miller_lanes(n_max: int, xs: np.ndarray) -> np.ndarray:
    # _miller over a 1-D array of x > 0, one lane per x: row i is
    # bitwise _miller(n_max, xs[i]).  Each lane starts at its own n_start
    # with p = 1, is rescaled only when its own |p| passes _RESCALE and is
    # normalised by its own sum.  Lanes run in order of descending x, so
    # the lanes already started are always a prefix; a lane not yet
    # started holds p = p_up = 0, which the recurrence keeps at 0 and
    # which adds 0 to its sum.
    #
    # The pass takes up to 32 steps at a time.  A step is three numpy calls
    # over the block's lanes, p_{k-1} = (k * (2/x)) * p_k - p_{k+1}, and
    # `hist` keeps the p of every step; the squares follow once per block,
    # and the sum one add per step.  A rescale multiplies by a power of
    # two, which is exact, so a lane gives the one-x loop's bits whichever
    # step it is rescaled at: a lane whose block held a new p past
    # _RESCALE is scaled once, at the block's end (its last p_up and p, its
    # sum and its column of rec), and nothing is rerun.
    # Since |p_{k-1}| <= (2k/x + 1) * max(|p_k|, |p_{k+1}|), a block of more
    # than one step is kept short enough that p grows by at most
    # 2**_GROWTH_BITS < 1 / _SHRINK in it, so the one-x loop passes _RESCALE
    # at most once per block and every square the sum takes is finite; a
    # one-step block sums only the square of its first p.
    order = np.argsort(-xs, kind="stable")
    x = xs[order]
    lanes = x.size
    starts = (n_max + np.ceil(START_SLOPE * x).astype(np.int64) + START_OFFSET).tolist()
    two_over_x = 2.0 / x
    block = 32
    rec = np.zeros((n_max + 1, lanes))
    ssum = np.zeros(lanes)
    # Each block views these as contiguous (rows, lanes started) arrays, so
    # numpy streams every block operation.  hist: p_up and p at the block's
    # first step, then each new p; sq: the squares of hist past its first row.
    hist, sq = np.empty((block + 2) * lanes), np.empty((block + 1) * lanes)
    last = np.zeros((2, lanes))  # p_up and p after the last block
    big = _RESCALE * _RESCALE  # |p| > _RESCALE exactly when p * p > big
    top = starts[0] if lanes else 0
    joined = width = 0
    # a one-step block's last square may overflow; it only marks its lane
    with np.errstate(over="ignore"):
        while top > 0:
            growth = math.log2(2.0 * top / x[-1] + 1.0)  # per step, in bits, at most
            steps = min(block, top, max(1, int(_GROWTH_BITS / growth)))
            end = top - steps + 1  # the block runs k = top, top - 1, ..., end
            while width < lanes and starts[width] >= end:
                width += 1
            h = hist[: (steps + 2) * width].reshape(steps + 2, width)
            s = sq[: (steps + 1) * width].reshape(steps + 1, width)
            h[:2] = last[:, :width]
            tw = two_over_x[:width]
            rows = list(h)  # one view per row
            for k, up, cur, new in zip(range(top, end - 1, -1), rows, rows[1:], rows[2:]):
                while joined < width and starts[joined] >= k:
                    cur[joined] = 1.0  # the lane starts at k
                    joined += 1
                np.multiply(tw, k, new)
                np.multiply(new, cur, new)
                np.subtract(new, up, new)
            np.multiply(h[1:], h[1:], s)
            total = ssum[:width]
            for q in s[:steps]:  # one add per step, as the scalar loop sums
                np.add(total, q, total)
            if end <= n_max:
                low = max(top - n_max, 0)  # the first step that records its p
                rec[end : top - low + 1, :width] = h[low + 1 : steps + 1][::-1]
            hit = np.flatnonzero(s[1:].max(axis=0) > big)
            if hit.size:
                h[steps:, hit] *= _SHRINK
                ssum[hit] *= _SHRINK * _SHRINK
                rec[end:, hit] *= _SHRINK
            last[:, :width] = h[steps:]
            top = end - 1
    p = last[1]
    rec[0] = p
    ssum = 2.0 * ssum + p * p
    rec /= np.sqrt(ssum)
    out = np.empty((lanes, n_max + 1))
    out[order] = rec.T
    return out


def _validate_lanes(x: object) -> np.ndarray:
    # the scalar checks, applied to every entry of a 1-D array of x
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 1:
        raise RangeError(f"argument must be a float or a 1-D array, got {xs.ndim} dimensions")
    bad = ~((xs >= 0.0) & (xs <= MAX_ARG))  # NaN fails both tests
    if bad.any():
        _validate(float(xs[np.argmax(bad)]))
    return xs


def _tiny_rows(n_max: int, xs: np.ndarray) -> np.ndarray:
    # [J_0(x), ..., J_{n_max}(x)] for each 0 <= x < TINY_ARG: J_0 rounds to
    # 1 and J_1 to x/2, and every higher order is below x**2/8 < 1.3e-281
    rows = np.zeros((xs.size, n_max + 1))
    rows[:, 0] = 1.0
    rows[:, 1:2] = 0.5 * xs[:, None]
    return rows


def besselj(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate J_n(x) for integer n, at a float x or a 1-D array of x.

    Absolute error is at most 1e-12 inside the box |n| <= 1200,
    0 <= x <= 1e4.  The value is bitwise the sign times entry |n| of
    ``besselj_batch(|n|, x)``, so J_{-n}(x) returns exactly
    (-1)^n * J_n(x), and an array entry is bitwise the value of the float
    call at that entry.
    """
    n = check_int(n, "order", -MAX_ORDER, MAX_ORDER)
    n_abs = abs(n)
    sign = -1.0 if (n < 0 and n_abs % 2 == 1) else 1.0
    rows = besselj_batch(n_abs, x)
    if rows.ndim == 1:
        return sign * float(rows[n_abs])
    return sign * rows[:, n_abs]


def besselj_batch(n_max: int, x: float | np.ndarray) -> np.ndarray:
    """Evaluate [J_0(x), ..., J_{n_max}(x)] in a single downward pass
    (in closed form for x below TINY_ARG).

    Absolute error is at most 1e-12 inside the box n_max <= 1200,
    0 <= x <= 1e4.  For a 1-D array of x the result has one such row per
    entry, each bitwise the row of the float call at that entry.
    """
    n_max = check_int(n_max, "n_max", 0, MAX_ORDER)
    if np.ndim(x) == 0:
        x = float(x)
        _validate(x)
        if x < TINY_ARG:
            return _tiny_rows(n_max, np.array([x]))[0]
        return _miller(n_max, x)
    xs = _validate_lanes(x)
    out = np.empty((xs.size, n_max + 1))
    tiny = xs < TINY_ARG
    out[tiny] = _tiny_rows(n_max, xs[tiny])
    out[~tiny] = _miller_lanes(n_max, xs[~tiny])
    return out


def _mcmahon_j1(r: np.ndarray) -> np.ndarray:
    # Large-root expansion for the r-th positive zero of J1.
    beta = (r + 0.25) * math.pi
    b2 = beta * beta
    return beta - 0.375 / beta + (3.0 / 128.0) / (beta * b2) - 0.23025 / (beta * b2 * b2)


def j1_zeros(count: int) -> np.ndarray:
    """First ``count`` zeros of J1, counting sigma_0 = 0 as the zeroth.

    The result is a read-only array in increasing order: entry r is the
    r-th zero, and every positive entry satisfies |J1(zero)| <= ZERO_TOL.

    Newton iteration (J1' = J0 - J1/x) from the large-root expansion,
    inside a proven sign-change bracket: a step that leaves it is a
    ``ZeroFindingError``, and no supported zero takes one.  The first
    lane pass evaluates both ends of every bracket and every expansion
    guess, and checks each bracket's sign change before any Newton step;
    after that, every zero still being refined takes its next step in one
    lane pass.  Each zero follows exactly the iterates it would follow
    alone.
    """
    count = check_int(count, "count", 1, MAX_ZEROS + 1)
    zeros = np.zeros(count)
    r = np.arange(1, count)
    guess = _mcmahon_j1(r)
    a, b = guess - 0.2, guess + 0.2
    # one pass for both bracket ends and the first Newton point
    j0, j1 = besselj_batch(1, np.concatenate([a, b, guess])).T
    fa, fb = j1[: r.size], j1[r.size : 2 * r.size]
    # |J1| >= 1.585e-3 at every bracket end of the supported zeros, so no
    # end is itself a zero and each bracket must change sign strictly
    flat = fa * fb >= 0.0
    if flat.any():
        i = np.argmax(flat)
        raise ZeroFindingError(f"no sign change around zero {r[i]} in [{a[i]}, {b[i]}]")
    x, j0, j1 = guess, j0[2 * r.size :], j1[2 * r.size :]
    for step in range(60):
        if not r.size:
            break
        if step:
            j0, j1 = besselj_batch(1, x).T
        done = np.abs(j1) <= ZERO_TOL
        zeros[r[done]] = x[done]
        live = ~done
        r, a, b, x, j0, j1 = (v[live] for v in (r, a, b, x, j0, j1))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x - j1 / (j0 - j1 / x)
        outside = ~((a < x) & (x < b))
        if outside.any():
            i = np.argmax(outside)
            raise ZeroFindingError(f"Newton step of zero {r[i]} left [{a[i]}, {b[i]}]")
    if r.size:
        raise ZeroFindingError(f"zero {r[0]} did not refine to |J1| <= {ZERO_TOL}")
    zeros.setflags(write=False)
    return zeros


def sign_change_certificate(zeros: np.ndarray) -> bool:
    """Check J1 flips sign across [z - SIGN_CHANGE_DELTA, z + SIGN_CHANGE_DELTA]
    at every positive zero in ``zeros``.  Returns True when all flips hold."""
    z = zeros[1:]
    j1 = besselj(1, np.concatenate([z - SIGN_CHANGE_DELTA, z + SIGN_CHANGE_DELTA]))
    return bool(np.all(j1[: z.size] * j1[z.size :] < 0.0))
