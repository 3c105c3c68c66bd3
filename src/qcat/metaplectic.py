"""Quantization on the line: exact complex-Gaussian states, quantum
translations, and the metaplectic propagator acting on them.

A state is x |-> amplitude * exp(i*pi*Theta*(x-q)^2/h) * exp(2*i*pi*p*(x-q)/h)
with Im(Theta) > 0.  This family is closed under quantum translations, the
h-scaled Fourier transform and the propagator of any quadratic Hamiltonian,
so every operation below is exact up to floating point.

Branch: the quantized map of an integer matrix M multiplies the amplitude by
(a + b*Theta)^(-1/2) with the branch continued from the identity.  For a
hyperbolic M that is the principal square root (the sign argument is in
:func:`propagate_n`), so propagation uses only the integer entries of M and
never samples a flow.  ``classical.flow_coefficients`` serves only
:func:`schrodinger_residual` and the test oracles.

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
from dataclasses import dataclass, replace

import numpy as np

from .classical import FlowCoefficients, QuadraticHamiltonian, Sl2IntMatrix, flow_coefficients, spectral_data
from .errors import MismatchedHError, NonPositiveHError, ZeroACoefficientError

__all__ = [
    "GaussianState",
    "PlaneTranslation",
    "cis_turns",
    "frac_turns",
    "wavepacket",
    "gaussian_eval",
    "translate",
    "compose_translation_phase",
    "gaussian_overlap",
    "h_fourier_gaussian",
    "propagate_gaussian",
    "propagate_n",
    "schrodinger_residual",
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


@dataclass(frozen=True)
class PlaneTranslation:
    """Phase-space translation vector (a, b)."""

    a: float
    b: float


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


def translate(g: GaussianState, v: PlaneTranslation) -> GaussianState:
    """Quantum translation T_(a,b) g, exactly, as a new Gaussian state.

    T_(a,b) u(x) = exp(-i*pi*a*b/h) exp(2*i*pi*b*x/h) u(x - a); recentering the
    result at (q+a, p+b) multiplies the amplitude by
    exp(+i*pi*a*b/h) * exp(2*i*pi*b*q/h).
    """
    phase = cis_turns((v.a * v.b / 2.0 + v.b * g.q) / g.h)
    return replace(g, amplitude=g.amplitude * phase, q=g.q + v.a, p=g.p + v.b)


def compose_translation_phase(v1: PlaneTranslation, v2: PlaneTranslation, h: float) -> complex:
    """Cocycle phase in T_v1 T_v2 = exp(-i*pi*det(v1, v2)/h) T_(v1+v2)."""
    if h <= 0.0:
        raise NonPositiveHError(f"h must be positive, got {h}")
    det = v1.a * v2.b - v1.b * v2.a
    return complex(cis_turns(-det / (2.0 * h)))


def _overlap_from_centers(theta1, amp1, y1, w1, theta2: complex, amp2: complex,
                          y2: float, w2: float, h: float):
    """<g1, g2> = int g1 conj(g2) dx for Gaussians with the given data.

    Vectorized over the first state's center (y1, w1) and amplitude arrays.
    The integral is done by completing the square; the oscillatory part of the
    exponent goes through :func:`cis_turns`.
    """
    th1 = np.asarray(theta1, dtype=complex)
    d = th1 - np.conj(theta2)
    a2 = -1j * math.pi * d / h  # Re(a2) > 0 since Im(theta1) + Im(theta2) > 0
    z = np.conj(theta2) * y2 - th1 * np.asarray(y1) + np.asarray(w1) - w2
    e = (1j * math.pi / h) * (
        -z * z / d
        + th1 * np.asarray(y1) ** 2
        - np.conj(theta2) * y2 * y2
        - 2.0 * np.asarray(w1) * np.asarray(y1)
        + 2.0 * w2 * y2
    )
    pref = np.asarray(amp1) * np.conj(amp2) * np.sqrt(math.pi / a2)
    return pref * np.exp(e.real) * cis_turns(e.imag / _TWO_PI)


def gaussian_overlap(g1: GaussianState, g2: GaussianState) -> complex:
    """L2 inner product <g1, g2> (antilinear in g2) in closed form."""
    if g1.h != g2.h:
        raise MismatchedHError(f"states have h={g1.h} and h={g2.h}")
    val = _overlap_from_centers(
        g1.theta, g1.amplitude, g1.q, g1.p, complex(g2.theta), complex(g2.amplitude), g2.q, g2.p, g1.h
    )
    return complex(val)


def h_fourier_gaussian(g: GaussianState) -> GaussianState:
    """Unitary h-scaled Fourier transform h^(-1/2) int exp(-2*i*pi*x*xi/h) g(x) dx.

    Exact on Gaussians: theta -> -1/theta, (q, p) -> (p, -q), amplitude
    multiplied by (-i*theta)^(-1/2) exp(-2*i*pi*q*p/h).  Unitary, and the
    centered theta = i packet is a fixed point.
    """
    th = complex(g.theta)
    amp = g.amplitude / np.sqrt(-1j * th) * cis_turns(-g.q * g.p / g.h)
    return GaussianState(amplitude=complex(amp), theta=-1.0 / th, q=g.p, p=-g.q, h=g.h)


def _propagate_core(a: float, b: float, c: float, d: float, g: GaussianState) -> GaussianState:
    """One step of the matrix (a, b; c, d) on ``g``, with the principal
    branch of (a + b*theta)^(-1/2)."""
    th = complex(g.theta)
    w = a + b * th
    q2 = a * g.q + b * g.p
    p2 = c * g.q + d * g.p
    amp2 = g.amplitude * complex(1.0 / np.sqrt(w)) * cis_turns((q2 * p2 - g.q * g.p) / (2.0 * g.h))
    return GaussianState(amplitude=complex(amp2), theta=(c + d * th) / w, q=q2, p=p2, h=g.h)


def propagate_gaussian(m, g: GaussianState) -> GaussianState:
    """Apply the quantized linear map of ``m`` to the Gaussian state ``g``.

    ``m`` may be an :class:`Sl2IntMatrix` (see :func:`propagate_n`) or a
    :class:`FlowCoefficients` snapshot, for which the principal branch is
    used and requires Re(a + b*theta) > 0.
    """
    if isinstance(m, Sl2IntMatrix):
        return propagate_n(m, g, 1)
    if isinstance(m, FlowCoefficients):
        if m.a == 0.0:
            raise ZeroACoefficientError("flow coefficients have a = 0")
        if (m.a + m.b * complex(g.theta)).real <= 0.0:
            raise ValueError("principal branch undefined for Re(a + b*theta) <= 0")
        return _propagate_core(m.a, m.b, m.c, m.d, g)
    raise TypeError(f"unsupported propagator input {type(m)!r}")


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
            degenerates there; use :func:`h_fourier_gaussian` instead).
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


def schrodinger_residual(h: QuadraticHamiltonian, t: float, x: float, xi: float, hbar_param: float) -> float:
    """|i*hbar*du/dt - H_hat u| for the explicit plane-wave solution.

    u(t, x) = a_t^(-1/2) exp(i S(t,x)/hbar) with
    S = (c_t x^2 + 2 x xi - b_t xi^2)/(2 a_t) and hbar = h/(2 pi).  All
    derivatives are evaluated from the closed forms, so the residual is zero
    up to rounding exactly when (a_t, b_t, c_t, d_t) solve the flow equations.
    """
    if hbar_param <= 0.0:
        raise NonPositiveHError(f"h must be positive, got {hbar_param}")
    fc = flow_coefficients(h, t)
    a, b, c = fc.a, fc.b, fc.c
    if a <= 0.0:
        raise ZeroACoefficientError(f"a_t must stay positive on the tested interval, got {a}")
    hb = hbar_param / _TWO_PI
    al, be, ga = h.alpha, h.beta, h.gamma
    # Flow derivatives from the generator ODEs.
    da = ga * a + be * c
    db = ga * fc.b + be * fc.d
    dc = -al * a - ga * c
    s_x = (c * x + xi) / a
    s_xx = c / a
    s_t = (dc * x * x - db * xi * xi) / (2.0 * a) - da * (c * x * x + 2.0 * x * xi - b * xi * xi) / (
        2.0 * a * a
    )
    # i*hbar*du/dt - H u = [-i*hbar*da/(2a) - S_t - al*x^2/2 - ga*x*S_x
    #                       - be/2*S_x^2 + i*hbar*(ga/2 + be/2*S_xx)] * u
    bracket = (
        -1j * hb * da / (2.0 * a)
        - s_t
        - 0.5 * al * x * x
        - ga * x * s_x
        - 0.5 * be * s_x * s_x
        + 1j * hb * (0.5 * ga + 0.5 * be * s_xx)
    )
    return abs(bracket) * a ** -0.5
