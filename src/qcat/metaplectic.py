"""Quantization on the line: exact complex-Gaussian states and the
metaplectic propagator acting on them.

A state is x |-> amplitude * exp(i*pi*Theta*(x-q)^2/h) * exp(2*i*pi*p*(x-q)/h)
with Im(Theta) > 0.  This family is closed under quantum translations, the
h-scaled Fourier transform and the propagator of any quadratic Hamiltonian,
so every operation below is exact up to floating point.

Branch: the quantized map of an integer matrix M multiplies the amplitude by
(a + b*Theta)^(-1/2).  For every hyperbolic M the principal square root
serves (the sign argument is in :func:`propagate_n`), so propagation uses
only the integer entries of M and never samples a flow.  Quantum
translations, closed-form overlaps, the h-Fourier transform and the
Schroedinger residual are test oracles in ``tests/oracles.py``.

Phase handling: a phase is reduced mod one full turn in the precision its
turns are formed in, before any trig function.  ``cis_turns`` takes float64
turns and reduces them by ``mod1``, t - floor(t) in float64: exact for
t >= 0 and t <= -1/2 (Sterbenz), the one rounding of t + 1 in between.  Only
``gaussian_eval`` and the Birkhoff orbit phases form turns in long double;
``frac_turns`` reduces those, with the bits of t - floor(t).  Phases of the
form (integer)/h with 1/h = N even are exactly 1 and are dropped in integer
arithmetic (see :mod:`qcat.torus`).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .classical import Sl2IntMatrix, spectral_data
from .errors import NonPositiveHError, NumericalToleranceError

__all__ = [
    "GaussianState",
    "cis_turns",
    "frac_turns",
    "mod1",
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


def mod1(turns):
    """turns - floor(turns) in float64, in [0, 1]; exact unless -1/2 < t < 0."""
    return turns - np.floor(turns)


def cis_turns(turns) -> np.ndarray | complex:
    """exp(2*pi*i*turns) for float64 ``turns`` (Python numbers too), reduced by
    :func:`mod1`; a 0-d input gives a Python complex.  Turns that float64
    cannot hold, such as long doubles, raise TypeError (:func:`frac_turns`)."""
    t = np.asarray(turns)
    if t.dtype != np.float64:
        if not np.can_cast(t.dtype, np.float64):
            raise TypeError(f"cis_turns takes float64 turns, got {t.dtype}; reduce with frac_turns")
        t = t.astype(np.float64)
    out = np.exp(1j * _TWO_PI * mod1(t))
    return complex(out) if out.ndim == 0 else out


class GaussianState(namedtuple("GaussianState", "amplitude theta q p h")):
    """Complex Gaussian wave function on the line.

    amplitude : complex prefactor (global phase is meaningful and kept)
    theta     : complex shape parameter, Im(theta) > 0
    q, p      : phase-space center
    h         : quantization parameter, > 0

    ``_replace`` and ``_make`` skip the checks of h and theta.
    """

    __slots__ = ()

    def __new__(cls, amplitude: complex, theta: complex, q: float, p: float,
                h: float) -> "GaussianState":
        if h <= 0.0:
            raise NonPositiveHError(f"h must be positive, got {h}")
        if complex(theta).imag <= 0.0:
            raise ValueError(f"Im(theta) must be positive, got {theta}")
        return super().__new__(cls, amplitude, theta, q, p, h)

    @property
    def norm(self) -> float:
        """L2 norm in closed form: |amplitude| * (h / (2 Im theta))^(1/4)."""
        return abs(self.amplitude) * (self.h / (2.0 * complex(self.theta).imag)) ** 0.25


def wavepacket(q: float, p: float, h: float) -> GaussianState:
    """Unit-norm coherent state centered at (q, p): theta = i, amplitude (2/h)^(1/4)."""
    if h <= 0.0:
        raise NonPositiveHError(f"h must be positive, got {h}")
    return GaussianState(amplitude=complex((2.0 / h) ** 0.25), theta=1j, q=q, p=p, h=h)


def gaussian_eval(g: GaussianState, x: np.ndarray) -> np.ndarray:
    """Pointwise value of the state at the points of the array x."""
    dx = np.asarray(x, dtype=np.longdouble) - np.longdouble(g.q)
    th = complex(g.theta)
    turns = (np.longdouble(th.real) * dx * dx + 2.0 * np.longdouble(g.p) * dx) / (
        2.0 * np.longdouble(g.h)
    )
    damp = np.exp(-math.pi * th.imag * np.asarray(dx * dx, dtype=np.float64) / g.h)
    return g.amplitude * damp * cis_turns(frac_turns(turns))


def _propagate_core(a: float, b: float, c: float, d: float, g: GaussianState) -> GaussianState:
    """One step of the matrix (a, b; c, d) on ``g``, with the principal
    branch of (a + b*theta)^(-1/2)."""
    th = complex(g.theta)
    w = a + b * th
    theta2 = (c + d * th) / w
    q2 = a * g.q + b * g.p
    p2 = c * g.q + d * g.p
    turns = (q2 * p2 - g.q * g.p) / (2.0 * g.h)
    if not (math.isfinite(turns) and theta2.imag > 0.0):
        raise NumericalToleranceError(
            f"the propagated packet leaves the float range: center ({q2:.4g}, {p2:.4g}), "
            f"Im(theta) = {theta2.imag:.4g}"
        )
    amp2 = g.amplitude * complex(1.0 / np.sqrt(w)) * cis_turns(turns)
    return GaussianState(amplitude=complex(amp2), theta=theta2, q=q2, p=p2, h=g.h)


def propagate_n(m: Sl2IntMatrix, g: GaussianState, n: int) -> GaussianState:
    """n-fold application of the quantized map (n >= 0).

    ``m`` is the identity or hyperbolic (|trace| > 2, either sign, any a).
    Each step moves the center classically, updates
    theta' = (c + d*theta)/(a + b*theta), and multiplies the amplitude by
    (a + b*theta)^(-1/2) and the recentering phase exp(i*pi*(q'p' - qp)/h).
    The root is the principal one: b != 0 for every hyperbolic integer
    matrix (b = 0 forces trace +-2), so Im(a + b*theta) = b*Im(theta) != 0
    and a + b*theta never meets the cut (-inf, 0].  For trace > 2 that is
    the branch continued from 1 along the flow of log m; the test suite
    checks it against that flow.

    Raises:
        NonHyperbolicError: from :func:`spectral_data` for any other matrix.
        NumericalToleranceError: once the recentering phase (the lifted
            center grows like lam^n) overflows or Im(theta) (like lam^(-2n))
            underflows to 0, before n = 390 for every hyperbolic matrix.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0 or m.is_identity:
        return g
    spectral_data(m)  # raises for non-hyperbolic input
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    out = g
    for _ in range(n):
        out = _propagate_core(a, b, c, d, out)
    return out
