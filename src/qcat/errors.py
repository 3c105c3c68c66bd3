"""Exception hierarchy shared by all qcat modules."""

from __future__ import annotations


class QcatError(Exception):
    """Base class for all qcat errors."""


class NonHyperbolicError(QcatError):
    """Matrix has |trace| <= 2; no hyperbolic spectral data exists."""


class NegativeSpectrumError(QcatError):
    """Matrix has trace < -2; its eigenvalues are negative and the flow
    generator would need a complex logarithm, which is out of scope."""


class NonPositiveHError(QcatError):
    """A quantization parameter h <= 0 was supplied."""


class MismatchedHError(QcatError):
    """Two states with different h were combined."""


class ZeroACoefficientError(QcatError):
    """The kernel formula for the propagator degenerates when a = 0."""


class OddNError(QcatError):
    """The torus Hilbert space requires N = 1/h to be a positive even integer."""


class TruncationOverflowError(QcatError):
    """A certified lattice truncation radius exceeded the configured cap."""


class NotPerfectSquareError(QcatError):
    """The wave-packet lattice requires N to be a perfect square."""


class ThresholdViolationError(QcatError):
    """The requested time n is below the validity threshold of the estimate."""


class NumericalToleranceError(QcatError):
    """A computed quantity failed a hard numerical tolerance."""


class ConfigError(QcatError):
    """Invalid or malformed experiment configuration."""
