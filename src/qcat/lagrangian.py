"""Damped Lagrangian approximants of the propagated packet and the band
machinery around the unstable line.

The approximant at time n is

    L(x) = C * exp(i*pi*tan(theta)*x^2/h + 2*i*pi*s'*x/h)
             * exp(-pi*beta*(x - a')^2 / (h*lambda^(2n))),
    beta = 1 / cos^2(theta),

centered on the line of slope tan(theta) through (a', b'), s' = b' - a' tan.
The damping coefficient beta is derived from the exact shape recursion
theta' = (c + d theta)/(a + b theta).  Around the unstable slope z+ the
recursion contracts with multiplier lam^(-2), so

    theta_n = z+ + i beta lam^(-2n) + O(lam^(-4n)),
    beta = -i (i - z+)(z+ - z-) / (i - z-),

with z- the stable slope.  Only for symmetric matrices (b = c, the standard
cat map setting, where z- = -1/z+) does this collapse to the real value
beta = 1/cos^2(theta); that is a special case, never a default: a state
always carries the beta of its matrix (:func:`make_damped_lagrangian`).  The
test suite verifies both forms against exact integer matrix powers.
Re(beta) > 0 always (the Moebius iterates stay in the upper half plane).
C is the exact unit-norm constant of this Gaussian (the asymptotic
C ~ const / (h^(1/4) sqrt(lambda^n)) is a checked property, not an input).

Overlaps with coherent states are closed-form Gaussian integrals, returned
as a :class:`qcat.torus.OverlapForm` in the packet's center (q, p): its
envelope drives the certified band window (:func:`qcat.torus.line_tail_bound`)
and the off-band box (``OverlapForm.box``), and its live-term evaluation
gives every band and box value.  The band routines (:func:`band_sum`,
:func:`band_difference`, :func:`off_band_tail`) take such forms and a
:class:`BandIndexer`, so a caller builds each state and its form once and
passes the same form to every routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import Sl2IntMatrix, spectral_data
from .errors import TruncationOverflowError
from .metaplectic import GaussianState, propagate_n, wavepacket
from .torus import OverlapForm, certified_radius, line_tail_bound

__all__ = [
    "DampedLagrangianState",
    "BandIndexer",
    "damping_coefficient",
    "circle_distance",
    "make_damped_lagrangian",
    "lagrangian_overlap_field",
    "wavepacket_overlap_field",
    "band_sum",
    "off_band_tail",
    "band_difference",
    "aligned_propagated_state",
]

_MAX_BAND_TERMS = 2_000_000
_BAND_TAIL = 1e-14


def circle_distance(x, s0):
    """Signed circle distance: the representative of x - s0 in (-1/2, 1/2].

    u - floor(u) has the bits of ``np.mod(u, 1.0)`` at a fraction of its
    cost: both are the one rounding of the exact u - floor(u) (numpy's mod
    adds 1 to the exact fmod(u, 1) for negative u), and +-0, +-inf and nan
    agree.
    """
    u = np.asarray(x, dtype=float) - s0
    u = u - np.floor(u)
    d = np.where(u > 0.5, u - 1.0, u)
    if np.ndim(x) == 0:
        return float(d)
    return d


def damping_coefficient(m: Sl2IntMatrix) -> complex:
    """Exact transverse damping coefficient of the propagated packet shape.

    beta = -i (i - z+)(z+ - z-)/(i - z-) for the unstable/stable slopes of
    ``m``; equals 1/cos^2(theta) when ``m`` is symmetric.
    """
    sd = spectral_data(m)
    # b != 0 for every hyperbolic integer matrix (b = 0 forces trace +-2).
    z_plus = (sd.lam - m.a) / m.b
    z_minus = (1.0 / sd.lam - m.a) / m.b
    return complex(-1j * (1j - z_plus) * (z_plus - z_minus) / (1j - z_minus))


@dataclass(frozen=True)
class DampedLagrangianState:
    """Damped Lagrangian state along the unstable line (see module docstring).

    ``beta`` is the transverse damping coefficient of the matrix
    (:func:`damping_coefficient`); Re(beta) > 0 always.
    """

    n: int
    h: float
    theta: float
    lam: float
    a_prime: float
    b_prime: float
    beta: complex

    @property
    def s_prime(self) -> float:
        return self.b_prime - math.tan(self.theta) * self.a_prime

    @property
    def damping_scale(self) -> float:
        """lambda^(-2n), the shrink factor of the transverse width."""
        return self.lam ** (-2.0 * self.n)

    @property
    def norm_constant(self) -> float:
        """Exact L2-normalizing constant of the defining Gaussian."""
        return (2.0 * self.beta.real * self.damping_scale / self.h) ** 0.25


def make_damped_lagrangian(
    m: Sl2IntMatrix, n: int, h: float, center: tuple[float, float] = (0.0, 0.0)
) -> DampedLagrangianState:
    """The approximant of ``m`` at time n, with beta = damping_coefficient(m)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    sd = spectral_data(m)
    return DampedLagrangianState(
        n=n, h=h, theta=sd.theta, lam=sd.lam, a_prime=center[0], b_prime=center[1],
        beta=damping_coefficient(m),
    )


def _lagrangian_lambda(state: DampedLagrangianState) -> complex:
    return 1.0 - 1j * math.tan(state.theta) + state.beta * state.damping_scale


def lagrangian_overlap_field(state: DampedLagrangianState) -> OverlapForm:
    """<L, Phi_{q,p}> = pref * exp(E(q, p)) as an :class:`OverlapForm` in the
    packet center (q, p).

    Completing the square in the defining integral gives

        <L, Phi_{q,p}> = C C_h sqrt(h/Lam) e^{2 i pi p q / h}
            exp(-(pi/h) (q^2 + beta a'^2 lam^(-2n) + Z^2 / Lam)),
        Lam = 1 - i tan + beta lam^(-2n),
        Z = p + i q - s' + i beta a' lam^(-2n);

    the unit phase is folded into E's cross term.
    """
    h = state.h
    lam_c = _lagrangian_lambda(state)
    beta_n = state.beta * state.damping_scale
    z1 = -state.s_prime + 1j * beta_n * state.a_prime
    s = -math.pi / h
    e_qq = s * (1.0 - 1.0 / lam_c)
    e_pp = s * (1.0 / lam_c)
    e_qp = s * (2.0j / lam_c) + 2j * math.pi / h
    e_q = s * (2.0j * z1 / lam_c)
    e_p = s * (2.0 * z1 / lam_c)
    e_c = s * (beta_n * state.a_prime ** 2 + z1 * z1 / lam_c)
    c_h = (2.0 / h) ** 0.25
    pref = state.norm_constant * c_h * np.sqrt(h / lam_c)
    return OverlapForm((e_qq, e_pp, e_qp, e_q, e_p, e_c), complex(pref))


def wavepacket_overlap_field(g: GaussianState) -> OverlapForm:
    """Same as :func:`lagrangian_overlap_field` but for <g, Phi_{q,p}> with a
    fixed Gaussian state g (theta2 = i packet as the moving test state)."""
    h = g.h
    th1 = complex(g.theta)
    d = th1 + 1j  # theta1 - conj(i)
    z1 = g.p - th1 * g.q
    s = 1j * math.pi / h
    e_qq = s * (1.0 / d + 1j)
    e_pp = s * (-1.0 / d)
    e_qp = s * (2.0 - 2.0j / d)
    e_q = s * (2.0j * z1 / d)
    e_p = s * (2.0 * z1 / d)
    e_c = s * (-z1 * z1 / d + th1 * g.q ** 2 - 2.0 * g.p * g.q)
    c_h = (2.0 / h) ** 0.25
    pref = g.amplitude * c_h * np.sqrt(math.pi / (-s * d))
    return OverlapForm((e_qq, e_pp, e_qp, e_q, e_p, e_c), complex(pref))


@dataclass(frozen=True)
class BandIndexer:
    """Resolves, for each column q0 + m, the unique row p0 + p(m) inside the
    band of half-width cos(theta)/2 around the line of slope tan(theta) with
    intercept s'."""

    theta: float
    q0: float
    p0: float
    s_prime: float

    def offset(self, m):
        """(q0+m) tan + s' - p0 before rounding."""
        return (self.q0 + np.asarray(m, dtype=float)) * math.tan(self.theta) + self.s_prime - self.p0

    def p_of(self, m):
        """The unique integer with the band offset in (-1/2, 1/2]."""
        v = self.offset(m)
        out = np.ceil(v - 0.5)
        if np.ndim(m) == 0:
            return int(out)
        return out.astype(int)

    def d_of(self, m):
        """Signed distance-coordinate q tan + s' - p along the band."""
        return self.offset(m) - self.p_of(m)


def _band_m_range(form: OverlapForm, indexer: BandIndexer, target: float) -> tuple[int, int]:
    """Certified m-window: outside it, sum of |form| along the band <= target.

    |term(m)| <= peak * exp(-mu (q0 + m - center_q)^2 / 2), so the window is
    the smallest radius that :func:`qcat.torus.line_tail_bound` certifies.
    """
    center, mu, peak = form.envelope()
    if peak <= target:
        return 0, -1  # everything is negligible; empty range
    radius = certified_radius(peak, mu, target, line_tail_bound)
    if radius > _MAX_BAND_TERMS:
        raise TruncationOverflowError("certified band window exceeds the term cap")
    mid = center[0] - indexer.q0
    return math.floor(mid - radius), math.ceil(mid + radius)


def band_sum(form: OverlapForm, indexer: BandIndexer) -> complex:
    """sum_m form(q0+m, p0+p(m)) over the band window certified to
    ``_BAND_TAIL``."""
    m_lo, m_hi = _band_m_range(form, indexer, _BAND_TAIL)
    if m_hi < m_lo:
        return 0.0 + 0.0j
    m = np.arange(m_lo, m_hi + 1)
    k = indexer.p_of(m)
    q = indexer.q0 + m
    p = indexer.p0 + k
    return complex(np.sum(form.terms(q, p)))


def band_difference(form_l: OverlapForm, form_g: OverlapForm, indexer: BandIndexer) -> float:
    """|L_(n,h)(q0,p0) - M_(n,h)(q0,p0)|: the difference of the band sums
    (:func:`band_sum`) along ``indexer``'s band of the damped-Lagrangian
    form ``form_l`` and the propagated-packet form ``form_g``."""
    return float(abs(band_sum(form_l, indexer) - band_sum(form_g, indexer)))


def off_band_tail(form: OverlapForm, indexer: BandIndexer,
                  max_terms: int = _MAX_BAND_TERMS) -> float:
    """|sum of overlap terms over lattice translates outside the band|.

    ``form`` is the overlap form of a damped Lagrangian state or of a
    propagated Gaussian; ``indexer`` gives its band, the cos(theta)/2
    neighborhood of the unstable line, at the columns q0 + k1.  Terms pair
    the state against plain packets Phi_{(q0+k1, p0+k2)} at the live points
    of the certified box of tail 1e-16 times the peak (``OverlapForm.box``),
    summed in their row-major order.

    Raises:
        TruncationOverflowError: if that box has more than ``max_terms`` terms.
    """
    q0, p0 = indexer.q0, indexer.p0
    peak = form.envelope()[2]
    k1, k2, _ = form.box(q0, p0, 1e-16 * max(peak, 1e-300), max_terms)
    vals = form.terms(q0 + k1, p0 + k2)
    return float(abs(np.sum(vals[k2 != indexer.p_of(k1)])))


def aligned_propagated_state(m: Sl2IntMatrix, n: int, h: float) -> tuple[GaussianState, complex]:
    """n-step propagated centered packet with its amplitude rotated to be real
    positive (the normalization convention of the damped-Lagrangian bounds),
    together with the removed unit phase."""
    g = propagate_n(m, wavepacket(0.0, 0.0, h), n)
    phase = g.amplitude / abs(g.amplitude)
    aligned = GaussianState(
        amplitude=abs(g.amplitude), theta=g.theta, q=g.q, p=g.p, h=g.h
    )
    return aligned, complex(phase)
