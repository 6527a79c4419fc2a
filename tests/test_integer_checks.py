"""Every order, count and cap goes through ``errors.check_int``."""

import functools
import random

import numpy as np
import pytest

from lacuna import bessel, certificate as ct, integrals as ig, spectrum as sp
from lacuna.errors import RangeError, SpectrumError, check_int

A4 = sp.make_spectrum(base=4, depth=3)
_table = functools.cache(lambda: ig.build_table(2))
_sweep = functools.cache(lambda: ig.sweep_diagonal(2, r_max=ig.MIN_R_MAX))

# (name, call on one integer argument, a value the call accepts, the refusal's class)
ENTRY_POINTS = [
    ("besselj", lambda v: bessel.besselj(v, 1.0), 1, RangeError),
    ("besselj_batch", lambda v: bessel.besselj_batch(v, 1.0), 1, RangeError),
    ("j1_zeros", bessel.j1_zeros, 1, RangeError),
    ("build_table", ig.build_table, 1, RangeError),
    ("sweep_diagonal", lambda v: ig.sweep_diagonal(v, r_max=ig.MIN_R_MAX), 1, RangeError),
    ("DiagonalSweep.value", lambda v: _sweep().value(v, 0, 0), 1, RangeError),
    ("i_direct", lambda v: ig.i_direct((0, 0, v, 0, 0, 0)), 1, RangeError),
    ("i_tilde", lambda v: ig.i_tilde(0, v, 0, _table()), 1, RangeError),
    ("f_ratio", lambda v: ig.f_ratio(0, 0, v), 1, RangeError),
    ("random_vector", lambda v: ct.random_vector(A4, random.Random(0), size=v), 1, RangeError),
    ("make_spectrum base", lambda v: sp.make_spectrum(base=v, depth=2), 4, SpectrumError),
    ("make_spectrum depth", lambda v: sp.make_spectrum(base=4, depth=v), 1, SpectrumError),
    ("make_spectrum scale", lambda v: sp.make_spectrum(base=4, depth=2, scale=v), 1, SpectrumError),
]


@pytest.mark.parametrize("call, good, error", [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_entry_point_takes_integers_only(call, good, error):
    for bad in (True, np.True_, 1.5):
        with pytest.raises(error):
            call(bad)
    call(np.int64(good))


def test_check_int():
    got = check_int(np.int64(7), "order", -7, 7)
    assert got == 7 and type(got) is int
    with pytest.raises(RangeError, match=r"^order 8 outside \[-7, 7\]$"):
        check_int(8, "order", -7, 7)
    with pytest.raises(RangeError, match=r"^count must be an integer, got False$"):
        check_int(False, "count", 0, 1)
    with pytest.raises(RangeError, match=r"^count must be an integer, got '3'$"):
        check_int("3", "count", 0, 5)


def test_no_hand_written_order_check_is_left():
    assert not hasattr(ig, "_check_order")
