"""The parabolic skew product encoding the interference phases, damped
Birkhoff sums of its orbits, and the assembled matrix-element prediction.

The skew product at parameter N is

    T(x, y) = (x + alpha, y + N x + beta) mod 1,   alpha = tan(theta),

with beta = alpha N / 2, so the m-th iterate is exactly
(x + m alpha, y + (m^2/2) N alpha + m N x).  The phase e^{2 i pi y_m} then
reproduces e^{i pi tan m^2 / h} e^{2 i pi m s / h}, which is what makes the
band sums along the unstable line Birkhoff sums of this map.  No map object
and no observable record is formed: the sum reads alpha = tan(theta), the
even N = 1/h, s', lam^n and beta from one damped Lagrangian state, the
target (q0, p0) from its second argument, and starts the orbit at (s', 0).

Predicted matrix element (time n, h = 1/N, source (a,b), target (q0,p0)):

    RHS = D * P * sqrt(2/cos(theta)) * (Re(beta_c) cos^2(theta))^(1/4)
            * Lam^(-1/2) * lam^(-n/2) * sum_k chi(k/lam^n) f(T^k(s', 0)),

where f is the interference observable of the target,

    f(x, y) = F0(d/sqrt(h)) exp(2 i pi q0 d / h) exp(2 i pi y),
    F0(u) = exp(-pi cos^2(theta) (1 + i tan) u^2),

with d = d(x, s0) the signed circle distance to s0 = p0 - q0 tan(theta),
and chi(u) = exp(-gamma0 u^2 / h) with
gamma0 = pi*beta the damping derived from the transverse
Gaussian analysis (beta from the exact shape recursion; 1/cos^2 only in the
symmetric special case), s' = b' - tan a' for the reduced image (a', b') of
M^n (a, b), Lam = 1 - i tan + beta_c lam^(-2n), and P collects the explicit
configuration phases (metaplectic branch, packet recentering, lift
reduction and target anchoring).  s', beta_c and Lam are read from the
damped Lagrangian state centered on (a', b')
(:class:`qcat.lagrangian.DampedLagrangianState`), the approximant whose
band sums the bands experiment checks at the origin.  D is a single complex
constant fitted once on a reference batch and frozen.  The factor
(Re(beta_c) cos^2(theta))^(1/4) is 1 for symmetric matrices, where
Re(beta_c) = 1/cos^2(theta).

The damped sum runs over the window |k| <= K certified as a sum:
|chi(k/M)| = exp(-mu k^2 / 2) with mu = 2 Re(gamma0) / (h M^2), M = lam^n,
and K is the smallest radius whose tail sum_{|k| > K} |chi(k/M)| the bound
``torus.line_tail_bound`` takes below 1e-14 (``torus.certified_radius``, the
package's one window routine, which also refuses a K past the cap of 5e7).
|f| <= 1, so the terms past K sum to at most 1e-14.
Each term is one exponential,

    chi(k/M) f(T^k(s', 0)) = exp(c_uu u^2 + c_dd d_k^2 + 2 i pi turns_k),
    c_uu = -pi beta / h,   c_dd = -pi cos^2(theta) (1 + i tan) / h,

with u = k/M, d_k the circle distance of s' + k alpha (float64) to s0 and
turns_k = q0 d_k / h + y_k.  A term is live when the real part of its
exponent is at least ln(1e-14/(2K+1)), so the scan forms no exponential and
the pruned terms sum to at most 1e-14: at most 2e-14 is left out in all.  The
window is walked in blocks of 2^13 terms, so memory is O(block + live), not
O(K).  Long double is used only for the orbit phases y_k of the live terms.
They are reduced mod 1 by ``metaplectic.frac_turns``, t - rint(t) plus 1
where negative, which has the bits of t - floor(t) without libm's slow
long-double ``floorl`` (see there for why it is exact).  Every other phase is
reduced mod 1 in float64 by ``metaplectic.mod1``.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import (Sl2IntMatrix, TorusPoint, ehrenfest_time, seeded_points, spectral_data,
                        validity_threshold)
from .errors import ThresholdViolationError
from .lagrangian import (DampedLagrangianState, aligned_propagated_state, circle_distance,
                         make_damped_lagrangian)
from .metaplectic import cis_turns, frac_turns, mod1
from .torus import certified_radius, even_n_from_h, line_tail_bound, matrix_element_exact

__all__ = [
    "damped_birkhoff_sum",
    "theorem_rhs",
    "fit_theorem_constant",
]


_WINDOW_CAP = 50_000_000
_TAIL = 1e-14
_BLOCK = 1 << 13


def _half_width(state: DampedLagrangianState) -> int:
    """Half-width K of the damping window of chi_h(k/M), M = lam^n: the
    smallest K >= 1 for which :func:`qcat.torus.line_tail_bound` certifies
    sum_{|k| > K} |chi_h(k/M)| <= 1e-14 (:func:`qcat.torus.certified_radius`),
    with |chi_h(k/M)| = exp(-mu k^2 / 2) and mu = 2 Re(pi beta) / (h M^2).

    Raises:
        TruncationOverflowError: if K exceeds 50_000_000, or if M^2 leaves
            the float range and mu is 0; no array is formed.
    """
    m_time = state.lam ** state.n
    mu = 2.0 * (math.pi * complex(state.beta)).real / (m_time * m_time * state.h)
    return certified_radius(1.0, mu, _TAIL, line_tail_bound, _WINDOW_CAP)


def _live_blocks(state: DampedLagrangianState, target: TorusPoint, k_max: int):
    """Yield the live k of the window k = -K..K and the exponents of their
    terms, one block of ``_BLOCK`` terms at a time, in ascending order.

    The term of k is exp(c_uu u^2 + c_dd d^2 + 2 i pi turns) with u = k/M,
    d = d(s' + k alpha, s0) and turns = q0 d / h + y_k (see the module
    docstring).  It is live when the real part of that exponent is at least
    ln(``_TAIL`` / (2K+1)), so the terms left out sum to at most ``_TAIL``
    in absolute value.  Only the live terms get the long-double y_k.

    Raises:
        OddNError: if 1/state.h is not an even integer.
    """
    h = state.h
    n_even = even_n_from_h(h)
    t = math.tan(state.theta)
    x = state.s_prime
    m_time = state.lam ** state.n
    q0 = target.q
    s0 = target.p - t * q0
    c_uu = -math.pi * complex(state.beta) / h
    c_dd = -math.pi * math.cos(state.theta) ** 2 * complex(1.0, t) / h
    log_floor = math.log(_TAIL / (2 * k_max + 1))
    alpha_l = np.longdouble(t)
    x_l = np.longdouble(x)
    for start in range(-k_max, k_max + 1, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, k_max + 1))
        u = k / m_time
        uu = u * u
        d = circle_distance(x + k * t, s0)
        dd = d * d
        # The real part of the exponent formed below, bit for bit.
        live = c_uu.real * uu + c_dd.real * dd >= log_floor
        k, uu, d, dd = k[live], uu[live], d[live], dd[live]
        k_l = np.asarray(k, dtype=np.longdouble)
        y_turns = k_l * k_l * (n_even // 2) * alpha_l + k_l * n_even * x_l
        turns = mod1(q0 * d * (1.0 / h)) + mod1(frac_turns(y_turns))
        yield k, c_uu * uu + c_dd * dd + 2j * math.pi * turns


def damped_birkhoff_sum(state: DampedLagrangianState, target: TorusPoint) -> complex:
    """S^chi_M(f)(s', 0) = sum_k chi_h(k/M) f(T^k(s', 0)) for the interference
    observable f of ``target`` and the derived damping chi_h, M = lam^n,
    to within 2e-14 in absolute value (see the module docstring for f).

    Every parameter is read from ``state``: the skew map T of
    alpha = tan(theta) and the even N = 1/h, the start s', the window scale
    M = lam^n (real, while k stays integer) and gamma0 = pi beta.  The
    window |k| <= K of :func:`_half_width` leaves out at most 1e-14; it is
    walked in blocks (:func:`_live_blocks`), and the live terms, each one
    exponential, leave out at most 1e-14 more.  They are summed in
    ascending k by one ``np.sum``, so memory is O(block + live).

    Raises:
        OddNError: if 1/state.h is not an even integer.
        TruncationOverflowError: if :func:`_half_width` refuses the window.
    """
    parts = [np.exp(expo) for _, expo in _live_blocks(state, target, _half_width(state))]
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

    See the module docstring for the assembled formula.  The damped sum
    leaves out at most 2e-14 in absolute value: 1e-14 past its certified
    window and 1e-14 in the pruned terms (:func:`damped_birkhoff_sum`).
    theta, lam, beta, s' and Lam are read from the damped Lagrangian state
    of ``m`` at time n centered on the reduced image (a', b')
    (:func:`qcat.lagrangian.make_damped_lagrangian`, which the bands
    experiment builds at the origin).  ``scale_constant`` is the fitted D.

    Raises:
        OddNError: if 1/h is not an even integer (:func:`qcat.torus.even_n_from_h`).
        ThresholdViolationError: for n below |log h|/(3 log lam) unless the
            caller opts in (exploratory plots).
        NumericalToleranceError: once the propagated packet leaves the float
            range (:func:`qcat.metaplectic.propagate_n`), before n = 390.
        TruncationOverflowError: if the damping window of the sum passes its
            cap (:func:`damped_birkhoff_sum`).
    """
    n_even = even_n_from_h(h)
    a, b = src.q, src.p
    q0, p0 = dst.q, dst.p

    # Propagation refuses a time whose exact matrix power would take long to
    # form or leave the float range, so it goes first.
    _, phi_n = aligned_propagated_state(m, n, h)
    big_a, big_b = m.power(n).apply(a, b)
    # Reduce the lifted image by the integer vector closest to the target
    # column q0: the damping window of the sum is then centered within half a
    # lattice step of k = 0, which is where chi(k/M) puts it.
    j1 = round(big_a - q0)
    j2 = math.floor(big_b)
    state = make_damped_lagrangian(m, n, h, (big_a - j1, big_b - j2))
    lam = state.lam
    if n + 1e-12 < validity_threshold(h, lam) and not allow_below_threshold:
        raise ThresholdViolationError(
            f"n={n} below validity threshold {validity_threshold(h, lam):.3f}"
        )
    t = math.tan(state.theta)
    s_real = big_b - t * big_a

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
        math.sqrt(2.0 / math.cos(state.theta))
        * (state.beta.real * math.cos(state.theta) ** 2) ** 0.25
        * lam ** (-0.5 * n)
        / np.sqrt(state.lam_c)
    )

    return complex(scale_constant * phases * amp * damped_birkhoff_sum(state, dst))


_FIT_N = 64
_FIT_PAIRS = 8


def fit_theorem_constant(m: Sl2IntMatrix, seed: int) -> complex:
    """Complex least-squares fit of D on the reference batch
    (N = ``_FIT_N``, n = ceil(1.5 t_E), ``_FIT_PAIRS`` source/target pairs of
    consecutive points of ``seeded_points(seed, 2 * _FIT_PAIRS)``).

    Fitted once and then frozen for every other configuration.

    Raises:
        ValueError: if ``seed`` is negative or not an integer.
    """
    h = 1.0 / _FIT_N
    sd = spectral_data(m)
    n_time = math.ceil(1.5 * ehrenfest_time(h, sd.lam))
    points = seeded_points(seed, 2 * _FIT_PAIRS)
    num = 0.0 + 0.0j
    den = 0.0
    for src, dst in zip(points[::2], points[1::2]):
        lhs = matrix_element_exact(m, n_time, src, dst, _FIT_N)
        rhs0 = theorem_rhs(m, n_time, h, src, dst)
        num += lhs * np.conj(rhs0)
        den += abs(rhs0) ** 2
    return complex(num / den)
