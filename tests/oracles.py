"""Test oracles for the closed forms of ``qcat``: routes that no experiment
runs, kept here so that the tests can check the production route against an
independent one.

- Quadrature: adaptive tanh-sinh integration and the propagator-kernel
  oracle, which evaluates at many points x at once the quantized-map
  integral of a Gaussian state f

      [U f](x) = a^(-1/2) int exp(2*pi*i*S(x, xi)/h) fhat(xi) dxi,
      S(x, xi) = (c x^2 + 2 x xi - b xi^2) / (2 a),

  with fhat the 1/h-normalized plane-wave decomposition
  fhat(xi) = (1/h) int exp(-2*i*pi*y*xi/h) f(y) dy, itself computed by
  quadrature, so the oracle shares no code with the closed-form Gaussian
  algebra.
- Gaussian-state algebra on the line: quantum translations and their
  cocycle, the closed-form L2 overlap, the unitary h-Fourier transform, the
  quadratic Hamiltonian whose time-1 flow is a matrix of trace > 2 (the
  flow-sampling branch tracker of ``conftest.py`` follows it), and the
  Schroedinger residual of the explicit plane-wave solution (acceptance
  criterion A9).
- Damped Lagrangian states: pointwise evaluation and the pointwise
  approximation check against the exactly propagated packet.
- The interference observable f of a target point and its damping window
  chi_h, the term-by-term route for ``birkhoff.damped_birkhoff_sum``, and
  the signed distance of a column from its band row.
- The Parseval pairing on the torus: a state as the N Fourier coefficients
  of its symmetrization (the inverse DFT of its periodized samples), and
  the pairing as their finite inner product, the independent route for the
  lattice pairing and the coefficient side of the comb-inversion oracle.
- The pinned propagator: the dense build with its unit constant measured
  by one coherent state instead of computed from the shear chain.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from qcat.classical import (QuadraticHamiltonian, Sl2IntMatrix, flow_coefficients,
                            spectral_data)
from qcat.errors import (MismatchedHError, NonPositiveHError, NumericalToleranceError, OddNError,
                         QcatError, TruncationOverflowError)
from qcat.lagrangian import (DampedLagrangianState, aligned_propagated_state, band_rows, circle_distance,
                             make_damped_lagrangian)
from qcat.metaplectic import (GaussianState, cis_turns, frac_turns, gaussian_eval, mod1, propagate_n,
                              wavepacket)
from qcat.torus import _MAX_DENSE_N, _apply_chain, _shear_chain, periodized_samples

_TWO_PI = 2.0 * math.pi


class QuadratureNonConvergenceError(QcatError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ZeroACoefficientError(QcatError):
    """The kernel formula for the propagator degenerates when a = 0."""


class NegativeSpectrumError(QcatError):
    """A quadratic Hamiltonian was asked for a matrix of trace < -2, whose
    negative eigenvalues leave it without a real logarithm.  Propagation
    needs no Hamiltonian and accepts such matrices."""


# ---------------------------------------------------------------- quadrature

_T_MAX = 3.9  # |t| beyond this the tanh-sinh weight is below 1e-17
_PHASE_BLOCK = 1 << 18  # entries of one block of the kernel oracle's phase matrix


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


def kernel_quadrature_oracle(m, g: GaussianState, x, h: float,
                             tol: float = 1e-9, max_level: int = 11) -> complex | np.ndarray:
    """Value at ``x`` of the propagated Gaussian state, by double quadrature.

    ``m`` is an :class:`Sl2IntMatrix` or :class:`FlowCoefficients` with a > 0
    (the principal real branch of a^(-1/2) is used, which is the branch the
    closed forms track for such matrices).  ``x`` is a float, for which a
    complex is returned, or a 1-D array, for which an array is.  Each level
    transforms g once for every x; it counts as converged when every x meets
    the rule of :func:`tanh_sinh`.  Its y -> xi phase matrix is formed in
    blocks of ``_PHASE_BLOCK`` entries, so memory does not grow with the
    square of the node count.

    Raises:
        ZeroACoefficientError: if a = 0.
        QuadratureNonConvergenceError: if two consecutive levels do not
            converge within ``max_level``.
    """
    a, b, c = float(m.a), float(m.b), float(m.c)
    if a == 0.0:
        raise ZeroACoefficientError("kernel formula degenerates at a = 0")

    y_lo, y_hi = gaussian_window(g)
    flo, fhi = gaussian_window(h_fourier_gaussian(g))
    xi_half = max(abs(flo), abs(fhi)) + math.sqrt(h)
    xc = np.asarray(x, dtype=float).reshape(-1, 1)
    prev = None
    agreements = 0
    for level in range(4, max_level + 1):
        xs, ws = tanh_sinh_nodes(level)
        y = 0.5 * (y_hi + y_lo) + 0.5 * (y_hi - y_lo) * xs
        wy = 0.5 * (y_hi - y_lo) * ws
        xi = xi_half * xs
        wxi = xi_half * ws
        # fhat(xi_j) = (1/h) sum_i wy_i exp(-2*i*pi*y_i*xi_j/h) g(y_i), summed by
        # einsum, not by BLAS, whose bits move with its thread count; the two
        # block buffers are reused, as fresh ones would be page-faulted anew.
        wg = wy * gaussian_eval(g, y)
        cols = max(1, _PHASE_BLOCK // y.size)
        arg, phase = np.empty((y.size, cols)), np.empty((y.size, cols), dtype=complex)
        fhat = np.empty(xi.size, dtype=complex)
        for j in range(0, xi.size, cols):
            w = min(cols, xi.size - j)
            np.multiply.outer(y, xi[j:j + w], out=arg[:, :w])
            p = np.multiply(-2j * math.pi, arg[:, :w], out=phase[:, :w])
            p /= h
            fhat[j:j + w] = np.einsum("i,ij->j", wg, np.exp(p, out=p))
        fhat /= h
        s = (c * xc * xc + 2.0 * xc * xi - b * xi * xi) / (2.0 * a)
        est = a ** -0.5 * np.sum(wxi * np.exp(2j * math.pi * s / h) * fhat, axis=1)
        if prev is not None and np.all(np.abs(est - prev) < tol * np.maximum(1.0, np.abs(est))):
            agreements += 1
            if agreements >= 2:
                return complex(est[0]) if np.ndim(x) == 0 else est
        else:
            agreements = 0
        prev = est
    raise QuadratureNonConvergenceError(
        f"kernel oracle did not converge to {tol} within {max_level} levels"
    )


def overlap_quadrature(g1: GaussianState, g2: GaussianState, tol: float = 1e-10) -> complex:
    """<g1, g2> = int g1(x) conj(g2(x)) dx by tanh-sinh, for cross-checking
    the closed form."""
    lo1, hi1 = gaussian_window(g1)
    lo2, hi2 = gaussian_window(g2)
    # The product decays at least as fast as the narrower factor.
    lo, hi = max(lo1, lo2) - 1.0, min(hi1, hi2) + 1.0
    if lo >= hi:
        lo, hi = min(lo1, lo2), max(hi1, hi2)
    return tanh_sinh(lambda y: gaussian_eval(g1, y) * np.conj(gaussian_eval(g2, y)), lo, hi, tol=tol)


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
    return g._replace(amplitude=g.amplitude * phase, q=g.q + v.a, p=g.p + v.b)


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
    centered theta = i packet is a fixed point.  It is an a = 0 case of the
    metaplectic propagator, which ``metaplectic.propagate_n`` also serves.
    """
    th = complex(g.theta)
    amp = g.amplitude / np.sqrt(-1j * th) * cis_turns(-g.q * g.p / g.h)
    return GaussianState(amplitude=complex(amp), theta=-1.0 / th, q=g.p, p=-g.q, h=g.h)


def hamiltonian_from_matrix(m: Sl2IntMatrix) -> QuadraticHamiltonian:
    """Quadratic Hamiltonian whose time-1 flow is ``m``.

    The generator is the spectral logarithm log(lam) * (P+ - P-) written through
    the eigenprojectors, which for a 2x2 determinant-one matrix collapses to

        log(m) = log(lam) * (2*m - trace(m)*I) / (lam - 1/lam).

    Exact for trace > 2; no series truncation is involved.

    Raises:
        NegativeSpectrumError: if trace < -2 (no real logarithm).
    """
    sd = spectral_data(m)
    if m.trace < -2:
        raise NegativeSpectrumError(f"trace {m.trace} < -2: m has no real logarithm")
    lam = sd.lam
    k = math.log(lam) / (lam - 1.0 / lam)
    tr = float(m.trace)
    g11 = k * (2.0 * m.a - tr)
    g12 = k * (2.0 * m.b)
    g21 = k * (2.0 * m.c)
    return QuadraticHamiltonian(alpha=-g21, beta=g12, gamma=g11)


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
        * cis_turns(frac_turns(turns))
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


# ---------------------------------------------------------------- interference observable and bands

class InterferenceObservable(NamedTuple):
    """Observable on the skew torus whose Birkhoff sums match the band sums.

    f(x, y) = F0(d(x, s0)/sqrt(h)) * exp(2 i pi q0 d(x, s0) / h) * exp(2 i pi y)

    with d the signed circle distance, s0 = p0 - q0 tan(theta), and profile
    F0(u) = exp(-pi cos^2 (1 + i tan) u^2).  ``beta`` is the damping
    coefficient of the matrix (:func:`qcat.lagrangian.damping_coefficient`);
    it equals 1/cos^2(theta) only for symmetric matrices.
    """

    q0: float
    p0: float
    theta: float
    h: float
    beta: complex

    @property
    def s0(self) -> float:
        return self.p0 - math.tan(self.theta) * self.q0

    @property
    def gamma0(self) -> complex:
        """Damping exponent scale pi * beta; Re(gamma0) > 0 always."""
        return math.pi * complex(self.beta)

    def _profile_exponent(self, u):
        t = math.tan(self.theta)
        c2 = math.cos(self.theta) ** 2
        uu = np.asarray(u, dtype=float)
        return -math.pi * c2 * complex(1.0, t) * uu * uu

    def profile(self, u):
        return np.exp(self._profile_exponent(u))

    def eval(self, x, y):
        """f(x, y) as one complex exponential; ``y`` is in turns (float64).

        Both turns, q0 d / h and y, are reduced by ``mod1`` in float64.
        """
        d = circle_distance(x, self.s0)
        turns = mod1(self.q0 * d * (1.0 / self.h)) + mod1(y)
        return np.exp(self._profile_exponent(d / math.sqrt(self.h)) + 2j * math.pi * turns)


def gaussian_damping(obs: InterferenceObservable):
    """chi_h(u) = exp(-gamma0 u^2 / h), the derived damping window."""
    g0 = obs.gamma0
    h = obs.h

    def chi(u):
        uu = np.asarray(u, dtype=float)
        return np.exp(-g0 * uu * uu / h)

    return chi


def band_distance(state: DampedLagrangianState, target, m):
    """Signed distance coordinate (q0 + m) tan + s' - p0 - p(m) of column
    q0 + m from its band row p(m) (``lagrangian.band_rows``)."""
    offset = (target.q + np.asarray(m, dtype=float)) * math.tan(state.theta) + state.s_prime - target.p
    return offset - band_rows(state, target, m)


# ---------------------------------------------------------------- Parseval pairing

class TorusState(namedtuple("TorusState", "N coeffs")):
    """Element of the torus space as N Fourier coefficients d_0..d_{N-1}.

    The coefficient sequence is N-periodic; these are one period.
    ``_replace`` and ``_make`` skip the checks of N and shape.
    """

    __slots__ = ()

    def __new__(cls, N: int, coeffs: np.ndarray) -> "TorusState":
        if N <= 0 or N % 2 != 0:
            raise OddNError(f"N must be a positive even integer, got {N}")
        if coeffs.shape != (N,):
            raise ValueError(f"expected {N} coefficients, got {coeffs.shape}")
        return super().__new__(cls, N, coeffs)


def torus_coefficients(g: GaussianState) -> TorusState:
    """Fourier data of the symmetrized state.

    d_n = (1/N) sum_{j in Z} g(j/N) exp(2*i*pi*n*j/N): the lattice sum of
    Gaussian samples against plane waves, N-periodic in n by construction.
    """
    coeffs = np.fft.ifft(periodized_samples(g))
    return TorusState(N=coeffs.size, coeffs=coeffs)


def pair_from_coefficients(s1: TorusState, s2: TorusState) -> complex:
    """Finite Parseval form of the Hermitian pairing: sum_n d_n conj(e_n)."""
    if s1.N != s2.N:
        raise OddNError(f"states live on different tori: N={s1.N} vs N={s2.N}")
    return complex(np.sum(s1.coeffs * np.conj(s2.coeffs)))


# ---------------------------------------------------------------- pinned propagator

def pinned_propagator_matrix(m: Sl2IntMatrix, N: int) -> np.ndarray:
    """Oracle for ``torus.build_propagator_matrix``: the same chain, with the
    unit constant pinned by one packet.  The chain applied to the samples of
    a coherent state is compared with the samples of ``propagate_n(m, g, 1)``
    and the ratio is rounded to the nearest eighth root of unity.

    Raises:
        OddNError, TruncationOverflowError: as the production build.
        NonHyperbolicError: from ``propagate_n``.
        NumericalToleranceError: if the measured ratio is more than 1e-9 off
            the root, or the packet leaves the float range.
    """
    if N <= 0 or N % 2 != 0:
        raise OddNError(f"N must be a positive even integer, got {N}")
    if N > _MAX_DENSE_N:
        raise TruncationOverflowError(
            f"the dense propagator at N = {N} is above the cap of N = {_MAX_DENSE_N}"
        )
    shears = _shear_chain(m)
    g = wavepacket(0.3, 0.4, 1.0 / N)
    image = periodized_samples(propagate_n(m, g, 1))
    chained = _apply_chain(shears, periodized_samples(g)[:, None])[:, 0]
    ratio = complex(np.vdot(chained, image) / np.vdot(chained, chained))
    unit = cis_turns(round(4.0 * np.angle(ratio) / math.pi) / 8.0)
    if abs(ratio - unit) > 1e-9:
        raise NumericalToleranceError(
            f"propagator constant {ratio:.12g} is {abs(ratio - unit):.3e} off the root {unit:.12g}"
        )
    samples = np.eye(N, dtype=complex)
    _apply_chain(shears, np.fft.fft(samples, axis=0, out=samples))
    samples *= unit
    return np.fft.ifft(samples, axis=0, out=samples)
