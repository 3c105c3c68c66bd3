"""Quantization on the line: exact complex-Gaussian states and the
metaplectic propagator acting on them.

A state is x |-> amplitude * exp(i*pi*Theta*(x-q)^2/h) * exp(2*i*pi*p*(x-q)/h)
with Im(Theta) > 0.  This family is closed under quantum translations, the
h-scaled Fourier transform and the propagator of any quadratic Hamiltonian,
so every operation below is exact up to floating point.

Branch: the quantized map of an integer matrix M multiplies the amplitude by
(a + b*Theta)^(-1/2) with the branch continued from the identity.  For a
hyperbolic M that is the principal square root (the sign argument is in
:func:`propagate_n`), so propagation uses only the integer entries of M and
never samples a flow.  Quantum translations, closed-form overlaps, the
h-Fourier transform and the Schroedinger residual are test oracles in
``tests/oracles.py``.

Phase handling: oscillatory phases are reduced mod one full turn in 80-bit
extended precision before calling trig functions (``cis_turns``), and phases
of the form (integer)/h with 1/h = N even reduce to exactly 1 and are dropped
in integer arithmetic where it matters (see :mod:`qcat.torus`).  The
reduction (``frac_turns``) is r = t - rint(t), plus 1 where r < 0, which has
the bits of t - floor(t) without libm's slow long-double ``floorl``: for
|t| >= 1/2, r is a multiple of ulp(t) with |r| <= 1/2, so r and r + 1 are
exact; for -1/2 < t < 0 both routes make the one rounding of t + 1; and
+-0, +-inf and nan give the same result on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import Sl2IntMatrix, spectral_data
from .errors import NonPositiveHError, ZeroACoefficientError

__all__ = [
    "GaussianState",
    "cis_turns",
    "frac_turns",
    "wavepacket",
    "gaussian_eval",
    "propagate_n",
]

_TWO_PI = 2.0 * math.pi


def frac_turns(turns) -> np.ndarray:
    """turns mod 1 as float64 in [0, 1], reduced in numpy's long double.

    r = t - rint(t), plus 1 where r < 0, has the bits of t - floor(t) for
    every input, at a fraction of the cost of libm's ``floorl``.  For
    |t| >= 1/2, r is a multiple of ulp(t) with |r| <= 1/2, so r and r + 1
    are exact and equal the exact t - floor(t).  For 0 <= t < 1/2, r = t.
    For -1/2 < t < 0, r = t and r + 1 is the one rounding of t + 1 that
    t - floor(t) makes.  +-0, +-inf and nan give the same result on both
    routes.  A 0-d input gives a 0-d result.
    """
    t = np.asarray(turns, dtype=np.longdouble)
    r = t - np.rint(t)
    r += r < 0
    return np.asarray(r, dtype=np.float64)


def cis_turns(turns) -> np.ndarray | complex:
    """exp(2*pi*i*turns), with the argument reduced mod 1 in extended precision.

    ``turns`` counts full revolutions.  Inputs are promoted to numpy's 80-bit
    long double and reduced by :func:`frac_turns`, exactly, which keeps the
    reduced fraction accurate even for arguments of order 1e12.
    """
    frac = frac_turns(turns)
    out = np.exp(1j * _TWO_PI * frac)
    if frac.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class GaussianState:
    """Complex Gaussian wave function on the line.

    amplitude : complex prefactor (global phase is meaningful and kept)
    theta     : complex shape parameter, Im(theta) > 0
    q, p      : phase-space center
    h         : quantization parameter, > 0
    """

    amplitude: complex
    theta: complex
    q: float
    p: float
    h: float

    def __post_init__(self) -> None:
        if self.h <= 0.0:
            raise NonPositiveHError(f"h must be positive, got {self.h}")
        if complex(self.theta).imag <= 0.0:
            raise ValueError(f"Im(theta) must be positive, got {self.theta}")

    @property
    def norm(self) -> float:
        """L2 norm in closed form: |amplitude| * (h / (2 Im theta))^(1/4)."""
        return abs(self.amplitude) * (self.h / (2.0 * complex(self.theta).imag)) ** 0.25


def wavepacket(q: float, p: float, h: float) -> GaussianState:
    """Unit-norm coherent state centered at (q, p): theta = i, amplitude (2/h)^(1/4)."""
    if h <= 0.0:
        raise NonPositiveHError(f"h must be positive, got {h}")
    return GaussianState(amplitude=complex((2.0 / h) ** 0.25), theta=1j, q=q, p=p, h=h)


def gaussian_eval(g: GaussianState, x) -> np.ndarray | complex:
    """Pointwise value of the state at x (scalar or array)."""
    dx = np.asarray(x, dtype=np.longdouble) - np.longdouble(g.q)
    th = complex(g.theta)
    turns = (np.longdouble(th.real) * dx * dx + 2.0 * np.longdouble(g.p) * dx) / (
        2.0 * np.longdouble(g.h)
    )
    damp = np.exp(-math.pi * th.imag * np.asarray(dx * dx, dtype=np.float64) / g.h)
    out = g.amplitude * damp * cis_turns(turns)
    if np.ndim(x) == 0:
        return complex(out)
    return out


def _propagate_core(a: float, b: float, c: float, d: float, g: GaussianState) -> GaussianState:
    """One step of the matrix (a, b; c, d) on ``g``, with the principal
    branch of (a + b*theta)^(-1/2)."""
    th = complex(g.theta)
    w = a + b * th
    q2 = a * g.q + b * g.p
    p2 = c * g.q + d * g.p
    amp2 = g.amplitude * complex(1.0 / np.sqrt(w)) * cis_turns((q2 * p2 - g.q * g.p) / (2.0 * g.h))
    return GaussianState(amplitude=complex(amp2), theta=(c + d * th) / w, q=q2, p=p2, h=g.h)


def propagate_n(m: Sl2IntMatrix, g: GaussianState, n: int) -> GaussianState:
    """n-fold application of the quantized map (n >= 0).

    ``m`` is the identity or hyperbolic with trace > 2.  Each step moves
    the center classically, updates theta' = (c + d*theta)/(a + b*theta),
    and multiplies the amplitude by (a + b*theta)^(-1/2) and the recentering
    phase exp(i*pi*(q'p' - qp)/h).  The branch of the root continued from 1
    along the flow of log m is the principal one: on that flow
    b_s = beta*sinh(mu*s)/mu has the sign of b for s in (0, 1], and b != 0
    for a hyperbolic integer matrix, so Im(a_s + b_s*theta) = b_s*Im(theta)
    keeps one sign and the path never meets (-inf, 0].

    Raises:
        NonHyperbolicError / NegativeSpectrumError: from
            :func:`spectral_data` for any other matrix.
        ZeroACoefficientError: if m has a = 0 (the kernel formula
            degenerates there).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0 or m.is_identity:
        return g
    spectral_data(m)  # raises for non-hyperbolic input
    if m.a == 0:
        raise ZeroACoefficientError("matrix has a = 0")
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    out = g
    for _ in range(n):
        out = _propagate_core(a, b, c, d, out)
    return out
