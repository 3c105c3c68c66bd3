"""The parabolic skew product encoding the interference phases, damped
Birkhoff sums of its orbits, and the assembled matrix-element prediction.

The skew product at parameter N is

    T(x, y) = (x + alpha, y + N x + beta) mod 1,   alpha = tan(theta),

with beta = alpha N / 2, so the m-th iterate is exactly
(x + m alpha, y + (m^2/2) N alpha + m N x).  The phase e^{2 i pi y_m} then
reproduces e^{i pi tan m^2 / h} e^{2 i pi m s / h}, which is what makes the
band sums along the unstable line Birkhoff sums of this map.

Predicted matrix element (time n, h = 1/N, source (a,b), target (q0,p0)):

    RHS = D * P * sqrt(2/cos(theta)) * (Re(beta_c) cos^2(theta))^(1/4)
            * Lam^(-1/2) * lam^(-n/2) * sum_k chi(k/lam^n) f(T^k(s', 0)),

where f is the interference observable, chi(u) = exp(-gamma0 u^2 / h) with
gamma0 = pi*beta the damping derived from the transverse
Gaussian analysis (beta from the exact shape recursion; 1/cos^2 only in the
symmetric special case), s' = b' - tan a' for the reduced image (a', b') of
M^n (a, b), Lam = 1 - i tan + beta_c lam^(-2n), and P collects the explicit
configuration phases (metaplectic branch, packet recentering, lift
reduction and target anchoring).  D is a single complex constant fitted once
on a reference batch and frozen.  The factor (Re(beta_c) cos^2(theta))^(1/4)
is 1 for symmetric matrices, where Re(beta_c) = 1/cos^2(theta).

The damped sum runs over the window |k| <= K past which |chi| stays below
1e-14.  |chi(u)| = exp(-Re(gamma0) u^2 / h) decreases in |u|, so K is the
closed form floor(M sqrt(h ln(1e14) / Re gamma0)), M = lam^n, settled by
steps of one against |chi| itself.  Only the live terms are summed:
|f(T^k(x, y))| = exp(-pi cos^2(theta) d_k^2 / h) depends only on the circle
distance d_k of x + k alpha to s0, so a float64 pass over real parts bounds
each term by |chi(k/M)| times that Gaussian and keeps the terms whose bound
is at least 1e-14/(2K+1).  The dropped terms sum to at most 1e-14 in
absolute value.  The window is walked in blocks of 2^13 terms, so memory is
O(block + live), not O(K).  Long double is used only for the orbit phases
y_k of the live terms.  They are reduced mod 1 by ``metaplectic.frac_turns``,
t - rint(t) plus 1 where negative, which has the bits of t - floor(t)
without libm's slow long-double ``floorl`` (see there for why it is exact).
Every other phase is reduced mod 1 in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (Sl2IntMatrix, TorusPoint, ehrenfest_time, seeded_points, spectral_data,
                        validity_threshold)
from .errors import OddNError, ThresholdViolationError, TruncationOverflowError
from .lagrangian import aligned_propagated_state, circle_distance, damping_coefficient
from .metaplectic import cis_turns, frac_turns
from .torus import matrix_element_exact

__all__ = [
    "SkewMap",
    "InterferenceObservable",
    "damped_birkhoff_sum",
    "gaussian_damping",
    "theorem_rhs",
    "fit_theorem_constant",
]


@dataclass(frozen=True)
class SkewMap:
    """(x, y) -> (x + alpha, y + N x + beta) on T^2 with beta = alpha*N/2."""

    alpha: float
    N: int

    def __post_init__(self) -> None:
        if self.N % 2 != 0:
            raise OddNError(
                f"N must be even so that beta = alpha*N/2 uses an integer N/2, got {self.N}"
            )


@dataclass(frozen=True)
class InterferenceObservable:
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

        Both turns, q0 d / h and y, are reduced mod 1 in float64.  For
        float64 inputs that rounds at most once, as a long-double reduction
        would, so no long double is needed here.
        """
        d = np.asarray(circle_distance(x, self.s0))
        q_turns = self.q0 * d * (1.0 / self.h)
        y_turns = np.asarray(y, dtype=float)
        turns = (q_turns - np.floor(q_turns)) + (y_turns - np.floor(y_turns))
        return np.exp(self._profile_exponent(d / math.sqrt(self.h)) + 2j * math.pi * turns)


def gaussian_damping(obs: InterferenceObservable):
    """chi_h(u) = exp(-gamma0 u^2 / h), the derived damping window."""
    g0 = obs.gamma0
    h = obs.h

    def chi(u):
        uu = np.asarray(u, dtype=float)
        return np.exp(-g0 * uu * uu / h)

    return chi


_WINDOW_CAP = 50_000_000
_CUTOFF = 1e-14
_LIVE_TAIL = 1e-14
_BLOCK = 1 << 13


def _half_width(obs: InterferenceObservable, m_time: float) -> int:
    """Half-width K of the damping window of chi_h(k/m_time): the largest
    k >= 0 with |chi_h(k/m_time)| >= 1e-14, and 0 if there is none.

    |chi_h(u)| = exp(-Re(gamma0) u^2 / h) decreases in |u|, so K is
    floor(m_time sqrt(h ln(1e14) / Re gamma0)) up to the rounding of |chi_h|,
    which steps of one against |chi_h| itself settle.

    Raises:
        TruncationOverflowError: if K exceeds 50_000_000; no array is formed.
    """
    chi = gaussian_damping(obs)

    def kept(k: int) -> bool:
        return abs(complex(chi(k / m_time))) >= _CUTOFF

    k_est = m_time * math.sqrt(obs.h * -math.log(_CUTOFF) / obs.gamma0.real)
    if not k_est <= _WINDOW_CAP:
        raise TruncationOverflowError(
            f"damping window half-width {k_est:.4g} exceeds the cap {_WINDOW_CAP}"
        )
    k_max = math.floor(k_est)
    while kept(k_max + 1):
        k_max += 1
    while k_max > 0 and not kept(k_max):
        k_max -= 1
    return k_max


def _live_blocks(t_map: SkewMap, obs: InterferenceObservable, x: float, m_time: float,
                 k_max: int):
    """Yield the live k of the window k = -K..K, one block of ``_BLOCK``
    terms at a time, in ascending order.

    |chi_h(k/M) f(T^k(x, y))| = exp(-Re(gamma0) (k/M)^2 / h) exp(-pi cos^2(theta)
    d_k^2 / h) with d_k = d(x + k alpha, s0), because every other factor is
    a phase.  A term is live when that float64 bound is at least
    ``_LIVE_TAIL`` / (2K+1), so the terms left out sum to at most
    ``_LIVE_TAIL`` in absolute value.
    """
    floor = _LIVE_TAIL / (2 * k_max + 1)
    re_g0 = obs.gamma0.real
    transverse = math.pi * math.cos(obs.theta) ** 2
    root_h = math.sqrt(obs.h)
    for start in range(-k_max, k_max + 1, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, k_max + 1))
        u = k / m_time
        v = circle_distance(x + k * t_map.alpha, obs.s0) / root_h
        bound = np.exp(-re_g0 * u * u / obs.h) * np.exp(-transverse * v * v)
        yield k[bound >= floor]


def damped_birkhoff_sum(t_map: SkewMap, obs: InterferenceObservable, pt: tuple[float, float],
                        m_time: float) -> complex:
    """S^chi_m(f)(pt) = sum_k chi_h(k/m) f(T^k pt) for the interference
    observable f = ``obs`` and its derived damping chi_h
    (:func:`gaussian_damping`), truncated where |chi_h| < 1e-14.

    ``m_time`` may be non-integer (the damping argument k/m is evaluated at
    real arguments while k stays integer).  The half-width K is the closed
    form of :func:`_half_width`.  The window is walked in blocks
    (:func:`_live_blocks`); in each, chi_h, the long-double orbit phases y_k
    and ``obs.eval`` are formed on the live terms only, whose bound
    |chi_h(k/m)| |F0(d_k/sqrt h)| is at least 1e-14/(2K+1).  The dropped
    terms sum to at most 1e-14 in absolute value.  The live values are
    summed in ascending k by one ``np.sum``, so memory is O(block + live).

    Raises:
        TruncationOverflowError: if K exceeds 50_000_000.
    """
    if m_time <= 0:
        raise ValueError("m_time must be positive")
    k_max = _half_width(obs, m_time)
    chi = gaussian_damping(obs)
    x, y = pt
    alpha_l = np.longdouble(t_map.alpha)
    x_l = np.longdouble(x)
    parts = []
    for k in _live_blocks(t_map, obs, x, m_time, k_max):
        k_l = np.asarray(k, dtype=np.longdouble)
        xs = x + np.asarray(k_l * alpha_l, dtype=np.float64)
        y_turns = y + k_l * k_l * (t_map.N // 2) * alpha_l + k_l * t_map.N * x_l
        # e^{2 i pi y_k} is supplied through the y argument in turns.
        parts.append(chi(k / m_time) * obs.eval(xs, frac_turns(y_turns)))
    return complex(np.sum(np.concatenate(parts)))


def theorem_rhs(
    m: Sl2IntMatrix,
    n: int,
    h: float,
    src: TorusPoint,
    dst: TorusPoint,
    scale_constant: complex = 1.0 + 0.0j,
    allow_below_threshold: bool = False,
) -> complex:
    """Predicted matrix element (D/sqrt(lam^n)) S^chi(f)(s', 0), fully phased.

    See the module docstring for the assembled formula.  ``scale_constant``
    is the fitted D.

    Raises:
        ThresholdViolationError: for n below |log h|/(3 log lam) unless the
            caller opts in (exploratory plots).
        TruncationOverflowError: if the damping window of the sum passes its
            cap (:func:`damped_birkhoff_sum`).
    """
    sd = spectral_data(m)
    if n + 1e-12 < validity_threshold(h, sd.lam) and not allow_below_threshold:
        raise ThresholdViolationError(
            f"n={n} below validity threshold {validity_threshold(h, sd.lam):.3f}"
        )
    n_even = round(1.0 / h)
    t = math.tan(sd.theta)
    lam = sd.lam
    a, b = src.q, src.p
    q0, p0 = dst.q, dst.p

    big_a, big_b = m.power(n).apply(a, b)
    # Reduce the lifted image by the integer vector closest to the target
    # column q0: the damping window of the sum is then centered within half a
    # lattice step of k = 0, which is where chi(k/M) puts it.
    j1 = round(big_a - q0)
    j2 = math.floor(big_b)
    a_prime = big_a - j1
    b_prime = big_b - j2
    s_real = big_b - t * big_a
    s_red = b_prime - t * a_prime

    beta_c = damping_coefficient(m)
    lam_c = 1.0 - 1j * t + beta_c * lam ** (-2.0 * n)

    _, phi_n = aligned_propagated_state(m, n, h)

    phases = (
        phi_n
        * cis_turns(-a * b * n_even / 2.0)
        * cis_turns(n_even * (t * big_a * big_a - big_a * big_b) / 2.0)
        * cis_turns(n_even * t * q0 * q0 / 2.0)
        * cis_turns(n_even * q0 * (p0 - t * q0))
        * cis_turns(n_even * t * j1 * j1 / 2.0)
        * cis_turns(n_even * j1 * s_real)
    )
    # (Re beta cos^2)^(1/4) is 1 for symmetric matrices, where Re beta = 1/cos^2.
    amp = (
        math.sqrt(2.0 / math.cos(sd.theta))
        * (beta_c.real * math.cos(sd.theta) ** 2) ** 0.25
        * lam ** (-0.5 * n)
        / np.sqrt(lam_c)
    )

    obs = InterferenceObservable(q0=q0, p0=p0, theta=sd.theta, h=h, beta=beta_c)
    t_map = SkewMap(alpha=t, N=n_even)
    s_sum = damped_birkhoff_sum(t_map, obs, (s_red, 0.0), lam ** n)
    return complex(scale_constant * phases * amp * s_sum)


_FIT_PAIRS = 8


def fit_theorem_constant(m: Sl2IntMatrix, n_ref: int = 64, seed: int = 20240901) -> complex:
    """Complex least-squares fit of D on the reference batch
    (N = n_ref, n = ceil(1.5 t_E), ``_FIT_PAIRS`` source/target pairs of
    consecutive points of ``seeded_points(seed, 2 * _FIT_PAIRS)``).

    Fitted once and then frozen for every other configuration.

    Raises:
        ValueError: if ``seed`` is negative or not an integer.
    """
    h = 1.0 / n_ref
    sd = spectral_data(m)
    n_time = math.ceil(1.5 * ehrenfest_time(h, sd.lam))
    points = seeded_points(seed, 2 * _FIT_PAIRS)
    num = 0.0 + 0.0j
    den = 0.0
    for src, dst in zip(points[::2], points[1::2]):
        lhs = matrix_element_exact(m, n_time, src, dst, n_ref)
        rhs0 = theorem_rhs(m, n_time, h, src, dst)
        num += lhs * np.conj(rhs0)
        den += abs(rhs0) ** 2
    return complex(num / den)
