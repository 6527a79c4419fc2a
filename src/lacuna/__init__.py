"""Verification toolkit for a sharp L2 -> L6 extension inequality on
the circle with lacunary frequency sets.

Subpackages by capability:

* ``bessel``      -- integer-order J_n evaluation and zeros of J1
* ``integrals``   -- six-fold Bessel product integrals, two ways; F and its floors
* ``spectrum``    -- lacunary sets and triple-sum classification
* ``systems``     -- exception table, row templates and their decision, numpy-free
* ``certificate`` -- sextic sums, grouped bound, F for the systems, final check
* ``cli``         -- command line front end
"""

from .errors import (
    CertificateError,
    LacunaError,
    RangeError,
    SpectrumError,
    StructureViolation,
    ZeroFindingError,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "LacunaError",
    "RangeError",
    "SpectrumError",
    "StructureViolation",
    "ZeroFindingError",
    "__version__",
]
