"""Exception hierarchy shared across the package, and its one integer check."""

import operator


class LacunaError(Exception):
    """Base class for all package-specific failures."""


class RangeError(LacunaError, ValueError):
    """An argument fell outside the validated evaluation box."""


class ZeroFindingError(LacunaError, ArithmeticError):
    """Root bracketing or refinement failed for a requested zero."""


class SpectrumError(LacunaError, ValueError):
    """A candidate spectrum violates the lacunarity contract."""


class StructureViolation(LacunaError, RuntimeError):
    """Classification found a sum pattern that cannot occur for a
    valid spectrum (e.g. three essentially distinct representations).
    Either the input bypassed validation or there is a bug upstream."""


class CertificateError(LacunaError, RuntimeError):
    """A certificate computation produced an internally inconsistent
    result (e.g. a purportedly real sum with a large imaginary part)."""


def check_int(value: object, what: str, lo: int, hi: int) -> int:
    """``value`` as an int in [lo, hi], else a RangeError. A bool is no integer;
    anything ``operator.index`` takes (a numpy integer, not a float) is."""
    if isinstance(value, bool):
        raise RangeError(f"{what} must be an integer, got {value!r}")
    try:
        n = operator.index(value)
    except TypeError:
        raise RangeError(f"{what} must be an integer, got {value!r}") from None
    if not lo <= n <= hi:
        raise RangeError(f"{what} {n} outside [{lo}, {hi}]")
    return n
