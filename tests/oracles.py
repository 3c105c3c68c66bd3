"""Test oracles for the closed forms of ``qcat``: routes that no experiment
runs, kept here so that the tests can check the production route against an
independent one.

- Quadrature: adaptive tanh-sinh integration and the propagator-kernel
  oracle, which evaluates the quantized-map integral

      [U f](x) = a^(-1/2) int exp(2*pi*i*S(x, xi)/h) fhat(xi) dxi,
      S(x, xi) = (c x^2 + 2 x xi - b xi^2) / (2 a),

  with fhat the 1/h-normalized plane-wave decomposition
  fhat(xi) = (1/h) int exp(-2*i*pi*y*xi/h) f(y) dy, itself computed by
  quadrature, so the oracle shares no code with the closed-form Gaussian
  algebra.
- Gaussian-state algebra on the line: quantum translations and their
  cocycle, the closed-form L2 overlap, the unitary h-Fourier transform, and
  the Schroedinger residual of the explicit plane-wave solution (acceptance
  criterion A9).
- Damped Lagrangian states: pointwise evaluation and the pointwise
  approximation check against the exactly propagated packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from qcat.classical import FlowCoefficients, QuadraticHamiltonian, Sl2IntMatrix, flow_coefficients
from qcat.errors import MismatchedHError, NonPositiveHError, QcatError, ZeroACoefficientError
from qcat.lagrangian import DampedLagrangianState, aligned_propagated_state, make_damped_lagrangian
from qcat.metaplectic import GaussianState, cis_turns, gaussian_eval

_TWO_PI = 2.0 * math.pi


class QuadratureNonConvergenceError(QcatError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------- quadrature

_T_MAX = 3.9  # |t| beyond this the tanh-sinh weight is below 1e-17


def tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and weights of the tanh-sinh rule on (-1, 1) at step 2^-level."""
    step = 0.5 ** level
    k = np.arange(-int(_T_MAX / step), int(_T_MAX / step) + 1)
    t = k * step
    sh = np.sinh(t)
    x = np.tanh(0.5 * math.pi * sh)
    w = step * 0.5 * math.pi * np.cosh(t) / np.cosh(0.5 * math.pi * sh) ** 2
    return x, w


def tanh_sinh(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              tol: float = 1e-9, max_level: int = 11) -> complex:
    """Integrate a (vectorized) complex function over [lo, hi].

    Levels are refined until two successive estimates differ by less than
    ``tol`` times max(1, |estimate|).

    Raises:
        QuadratureNonConvergenceError: if the tolerance is unreachable at the
            maximum refinement level.
    """
    mid = 0.5 * (hi + lo)
    rad = 0.5 * (hi - lo)
    prev = None
    agreements = 0
    for level in range(4, max_level + 1):
        x, w = tanh_sinh_nodes(level)
        est = complex(rad * np.sum(w * f(mid + rad * x)))
        if prev is not None and abs(est - prev) < tol * max(1.0, abs(est)):
            # two consecutive agreements guard against oscillatory aliasing
            agreements += 1
            if agreements >= 2:
                return est
        else:
            agreements = 0
        prev = est
    raise QuadratureNonConvergenceError(
        f"tanh-sinh did not converge to {tol} within {max_level} levels"
    )


def gaussian_window(g: GaussianState, tail: float = 1e-14) -> tuple[float, float]:
    """Interval outside which |g| is below ``tail`` times its peak."""
    im = complex(g.theta).imag
    half = math.sqrt(g.h * math.log(1.0 / tail) / (math.pi * im))
    return (g.q - half, g.q + half)


def _window_of(f, h: float, window: tuple[float, float] | None) -> tuple[float, float]:
    if isinstance(f, GaussianState):
        return gaussian_window(f)
    if window is None:
        raise ValueError("an explicit window is required for a plain callable")
    return window


def _as_callable(f):
    if isinstance(f, GaussianState):
        return lambda x: gaussian_eval(f, x)
    return f


def kernel_quadrature_oracle(m, f, x: float, h: float,
                             window: tuple[float, float] | None = None,
                             tol: float = 1e-9, max_level: int = 11) -> complex:
    """Value at ``x`` of the propagated function, by double quadrature.

    ``m`` is an :class:`Sl2IntMatrix` or :class:`FlowCoefficients` with a > 0
    (the principal real branch of a^(-1/2) is used, which is the branch the
    closed forms track for such matrices).  ``f`` is a GaussianState or a
    vectorized callable with super-exponential decay, in which case a position
    ``window`` containing its support must be given.

    Raises:
        ZeroACoefficientError: if a = 0.
        QuadratureNonConvergenceError: from the underlying integrator.
    """
    if isinstance(m, Sl2IntMatrix):
        a, b, c = float(m.a), float(m.b), float(m.c)
    elif isinstance(m, FlowCoefficients):
        a, b, c = m.a, m.b, m.c
    else:
        raise TypeError(f"unsupported propagator input {type(m)!r}")
    if a == 0.0:
        raise ZeroACoefficientError("kernel formula degenerates at a = 0")

    y_lo, y_hi = _window_of(f, h, window)
    func = _as_callable(f)
    # Frequency window: for a Gaussian input the exact transform envelope is
    # available; otherwise fall back to a generous uncertainty-scale estimate.
    if isinstance(f, GaussianState):
        flo, fhi = gaussian_window(h_fourier_gaussian(f))
        xi_half = max(abs(flo), abs(fhi)) + math.sqrt(h)
    else:
        sigma = max(0.25 * (y_hi - y_lo), math.sqrt(h))
        xi_half = 10.0 * h / sigma + 10.0 * sigma
    prev = None
    agreements = 0
    for level in range(4, max_level + 1):
        xs, ws = tanh_sinh_nodes(level)
        y = 0.5 * (y_hi + y_lo) + 0.5 * (y_hi - y_lo) * xs
        wy = 0.5 * (y_hi - y_lo) * ws
        xi = xi_half * xs
        wxi = xi_half * ws
        # fhat(xi_j) = (1/h) sum_i wy_i exp(-2*i*pi*y_i*xi_j/h) f(y_i)
        phase = np.exp(-2j * math.pi * np.outer(y, xi) / h)
        fhat = (wy * func(y)) @ phase / h
        s = (c * x * x + 2.0 * x * xi - b * xi * xi) / (2.0 * a)
        est = complex(a ** -0.5 * np.sum(wxi * np.exp(2j * math.pi * s / h) * fhat))
        if prev is not None and abs(est - prev) < tol * max(1.0, abs(est)):
            agreements += 1
            if agreements >= 2:
                return est
        else:
            agreements = 0
        prev = est
    raise QuadratureNonConvergenceError(
        f"kernel oracle did not converge to {tol} within {max_level} levels"
    )


def overlap_quadrature(f, g, h: float, window: tuple[float, float] | None = None,
                       tol: float = 1e-10) -> complex:
    """int f(x) conj(g(x)) dx by tanh-sinh, for cross-checking closed forms."""
    if window is None:
        lo1, hi1 = _window_of(f, h, None)
        lo2, hi2 = _window_of(g, h, None)
        # The product decays at least as fast as the narrower factor.
        window = (max(lo1, lo2) - 1.0, min(hi1, hi2) + 1.0)
        if window[0] >= window[1]:
            window = (min(lo1, lo2), max(hi1, hi2))
    ff, gg = _as_callable(f), _as_callable(g)
    return tanh_sinh(lambda x: ff(x) * np.conj(gg(x)), window[0], window[1], tol=tol)


# ---------------------------------------------------------------- Gaussian states

@dataclass(frozen=True)
class PlaneTranslation:
    """Phase-space translation vector (a, b)."""

    a: float
    b: float


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
    exponent goes through :func:`qcat.metaplectic.cis_turns`.
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
    centered theta = i packet is a fixed point.  It is the a = 0 case that
    ``metaplectic.propagate_n`` rejects.
    """
    th = complex(g.theta)
    amp = g.amplitude / np.sqrt(-1j * th) * cis_turns(-g.q * g.p / g.h)
    return GaussianState(amplitude=complex(amp), theta=-1.0 / th, q=g.p, p=-g.q, h=g.h)


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


# ---------------------------------------------------------------- damped Lagrangian states

def lagrangian_eval(state: DampedLagrangianState, x) -> np.ndarray | complex:
    """Pointwise value, with the oscillatory phase reduced in extended precision."""
    t = math.tan(state.theta)
    xl = np.asarray(x, dtype=np.longdouble)
    turns = (np.longdouble(t) * xl * xl / 2.0 + np.longdouble(state.s_prime) * xl) / np.longdouble(
        state.h
    )
    dx = np.asarray(x, dtype=float) - state.a_prime
    damp_expo = -math.pi * state.beta * dx * dx * state.damping_scale / state.h
    out = (
        state.norm_constant
        * np.exp(damp_expo.real)
        * cis_turns(damp_expo.imag / (2.0 * math.pi))
        * cis_turns(turns)
    )
    if np.ndim(x) == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class PointwiseApproxReport:
    n: int
    h: float
    fitted_r: float
    max_ratio: float
    violations: int


def check_pointwise_approx(m: Sl2IntMatrix, n: int, h: float, grid: np.ndarray) -> PointwiseApproxReport:
    """Check |U^n f - L(n)| <= |U^n f| * (1 - exp(-x^2 R_n / h)) on a grid.

    Both sides are explicit formulas.  The comparison removes the metaplectic
    unit phase of the exact state and rescales the Lagrangian state to the
    exact state's normalizing constant (the two constants agree to relative
    O(lambda^(-4n)); the bound is stated with a single shared constant).

    ``fitted_r`` is the smallest R making the inequality hold on the whole
    grid; ``violations`` counts points where no R works, i.e. where the
    difference exceeds the exact state's modulus.  Violations are only
    counted where |U^n f| >= 1e-13 of its grid maximum: in the far tail the
    residual quadratic-phase mismatch (order lambda^(-4n), the same order as
    R_n itself) can wind past pi while a real-R envelope saturates at 1, so
    the literal inequality fails by a bounded factor at amplitudes ~1e-60 of
    the peak, which carries no numerical content.
    """
    g, _ = aligned_propagated_state(m, n, h)
    state_l = make_damped_lagrangian(m, n, h)
    exact = np.asarray(gaussian_eval(g, grid))
    approx = np.asarray(lagrangian_eval(state_l, grid)) * (abs(g.amplitude) / state_l.norm_constant)
    diff = np.abs(exact - approx)
    mod = np.abs(exact)
    ratio = np.where(mod > 0, diff / np.maximum(mod, 1e-300), 0.0)
    noise_floor = 200.0 * np.finfo(float).eps
    usable = (np.abs(grid) > 1e-9) & (ratio > noise_floor)
    significant = mod >= 1e-13 * np.max(mod)
    violations = int(np.sum((ratio >= 1.0) & significant))
    fit_mask = usable & significant & (ratio < 1.0)
    if np.any(fit_mask):
        x2 = grid[fit_mask] ** 2
        r_pt = -(h / x2) * np.log1p(-ratio[fit_mask])
        fitted = float(np.max(r_pt))
    else:
        fitted = 0.0
    return PointwiseApproxReport(
        n=n, h=h, fitted_r=fitted, max_ratio=float(np.max(ratio)), violations=violations
    )
