"""Exception hierarchy shared by all qcat modules.

The CLI exits 2 on a :class:`ConfigError` and 3 on any other
:class:`QcatError`.  Errors that only a test oracle raises (a Hamiltonian
asked of a matrix of trace < -2, the kernel formula at a = 0) are defined
beside that oracle in ``tests/oracles.py``.
"""

from __future__ import annotations


class QcatError(Exception):
    """Base class for all qcat errors."""


class NonHyperbolicError(QcatError):
    """Matrix has |trace| <= 2; no hyperbolic spectral data exists."""


class NonPositiveHError(QcatError):
    """A quantization parameter h <= 0 was supplied."""


class MismatchedHError(QcatError):
    """Two states with different h were combined."""


class OddNError(QcatError):
    """The torus Hilbert space requires N = 1/h to be a positive even integer."""


class TruncationOverflowError(QcatError):
    """A certified lattice truncation radius exceeded the configured cap."""


class ThresholdViolationError(QcatError):
    """The requested time n is below the validity threshold of the estimate."""


class NumericalToleranceError(QcatError):
    """A computed quantity failed a hard numerical tolerance."""


class ConfigError(QcatError):
    """Invalid or malformed experiment configuration."""
