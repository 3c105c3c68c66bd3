from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import TracedPeak, orbit_turns
from oracles import InterferenceObservable, band_distance, gaussian_damping
from qcat import birkhoff
from qcat.classical import (Sl2IntMatrix, TorusPoint, ehrenfest_time, seeded_points, spectral_data,
                            validity_threshold)
from qcat.errors import (NumericalToleranceError, OddNError, ThresholdViolationError,
                         TruncationOverflowError)
from qcat.birkhoff import (
    _half_width,
    _live_blocks,
    damped_birkhoff_sum,
    fit_theorem_constant,
    theorem_rhs,
)
from qcat.harness import ExperimentConfig, run_theorem
from qcat.lagrangian import (
    DampedLagrangianState,
    band_rows,
    circle_distance,
    damping_coefficient,
    lagrangian_overlap_field,
    make_damped_lagrangian,
)
from qcat.metaplectic import cis_turns, frac_turns, mod1
from qcat.torus import line_tail_bound, matrix_element_exact


def test_skew_apply_examples():
    # The skew map's beta = alpha N / 2 needs an integer N / 2: an odd
    # N = 1/h is refused by the sum, which reads N from the state, and by
    # the prediction.
    odd = InterferenceObservable(q0=0.3, p0=0.7, theta=math.atan(0.37), h=1.0 / 5, beta=1.0)
    with pytest.raises(OddNError):
        damped_birkhoff_sum(*_sum_args(odd, 0.1, 10.0))
    with pytest.raises(OddNError):
        theorem_rhs(_CAT, 4, 1.0 / 5, TorusPoint(0.1, 0.2), TorusPoint(0.3, 0.4))


def _sum_args(obs, x, m_time):
    """The (state, target) from which ``damped_birkhoff_sum`` reads what the
    oracle observable ``obs`` holds: theta, h and beta, the start s' = x and
    the window scale lam^n = m_time (as n = 1 and lam = m_time)."""
    state = DampedLagrangianState(n=1, h=obs.h, theta=obs.theta, lam=m_time, a_prime=0.0,
                                  b_prime=x, beta=obs.beta)
    return state, TorusPoint(obs.q0, obs.p0)


def test_damped_birkhoff_sum_basics(cat):
    # The live-term sum at N = 4 against the whole window, term by term.
    obs = InterferenceObservable(q0=0.3, p0=0.7, theta=spectral_data(cat).theta, h=0.25,
                                 beta=damping_coefficient(cat))
    want, mass = _full_window_sum(obs, gaussian_damping(obs), 0.1, 10.0)
    got = damped_birkhoff_sum(*_sum_args(obs, 0.1, 10.0))
    assert abs(got - want) <= _DROPPED + _ROUNDING * mass


_CAT = Sl2IntMatrix(2, 1, 1, 1)
_NONSYMMETRIC = Sl2IntMatrix(3, 2, 1, 1)
_M3121 = Sl2IntMatrix(3, 1, 2, 1)
_LAM = spectral_data(_CAT).lam
# Real beta = 1/cos^2(theta), and the complex beta of a nonsymmetric matrix.
_GAUSSIAN_OBS = {
    "real_beta": InterferenceObservable(
        q0=0.3, p0=0.7, theta=spectral_data(_CAT).theta, h=1.0 / 256,
        beta=1.0 / math.cos(spectral_data(_CAT).theta) ** 2,
    ),
    "complex_beta": InterferenceObservable(
        q0=0.3, p0=0.7, theta=spectral_data(_NONSYMMETRIC).theta, h=1.0 / 256,
        beta=damping_coefficient(_NONSYMMETRIC),
    ),
}
def _mu(obs, m_time):
    """The curvature of |chi_h(k/M)| = exp(-mu k^2 / 2), M = ``m_time``,
    formed as ``birkhoff._half_width`` forms it."""
    return 2.0 * obs.gamma0.real / (m_time * m_time * obs.h)


def _certified(obs, m_time, k):
    """Whether line_tail_bound certifies the radius k for chi_h at M = ``m_time``."""
    return line_tail_bound(k, _mu(obs, m_time)) <= 1e-14


def _certified_edge(obs, k):
    """The largest window scale M at which the radius k is certified for
    the damping of ``obs``; the next float up needs a larger radius."""
    lo, hi = 1.0, 2.0
    while _certified(obs, hi, k):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if _certified(obs, mid, k):
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize(
    "m_time", [1, 23, _LAM ** 6, _LAM ** 12, _LAM ** 13, _LAM ** 16, _LAM ** 18],
    ids=["1", "23", "lam^6", "lam^12", "lam^13", "lam^16", "lam^18"],
)
@pytest.mark.parametrize("window", sorted(_GAUSSIAN_OBS))
def test_half_width_closed_form(window, m_time):
    # K is the smallest radius >= 1 that line_tail_bound certifies, up to
    # lam^18 where K is about 7e6.  The closed form
    # M sqrt(h ln(1e14) / Re gamma0), where |chi_h| itself falls to 1e-14,
    # stays within 25% (plus one) below it.
    obs = _GAUSSIAN_OBS[window]
    k_max = _half_width(_sum_args(obs, 0.0, m_time)[0])
    assert _certified(obs, m_time, k_max)
    assert k_max == 1 or not _certified(obs, m_time, k_max - 1)
    k_est = m_time * math.sqrt(obs.h * math.log(1e14) / obs.gamma0.real)
    assert k_est - 1.0 <= k_max <= 1.25 * k_est + 1.0
    if m_time == 1:
        assert k_max == 1


@pytest.mark.parametrize("k_target", [1, 7, 4095])
@pytest.mark.parametrize("window", sorted(_GAUSSIAN_OBS))
def test_half_width_at_the_cutoff(window, k_target):
    # M within a few ulps of the largest scale at which the radius k_target
    # is certified: K is k_target up to that scale and k_target + 1 past it.
    obs = _GAUSSIAN_OBS[window]
    edge = _certified_edge(obs, k_target)
    widths = set()
    for j in range(-6, 7):
        m_time = edge * (1.0 + j * 2.0 ** -52)
        k_max = _half_width(_sum_args(obs, 0.0, m_time)[0])
        assert k_max == (k_target if _certified(obs, m_time, k_target) else k_target + 1)
        widths.add(k_max)
    assert widths == {k_target, k_target + 1}


def _negligible_radius(obs, m_time):
    """The radius past which |chi_h(k/M)| < 1e-30, M = ``m_time``."""
    return math.ceil(m_time * math.sqrt(obs.h * math.log(1e30) / obs.gamma0.real))


def _tail_mass(obs, m_time, k_max):
    """Oracle: sum_{|k| > K} |chi_h(k/m_time)| term by term, out to where
    |chi_h| < 1e-30 (|chi_h| is even in k)."""
    chi = gaussian_damping(obs)
    k = np.arange(k_max + 1, _negligible_radius(obs, m_time) + 1)
    return 2.0 * float(np.sum(np.abs(chi(k / m_time))))


@pytest.mark.parametrize(
    "matrix, n_dim, n",
    [(_CAT, 256, 13), (_CAT, 1024, 13), (_CAT, 4096, 12), (_M3121, 256, 9), (_M3121, 4096, 10)],
    ids=["cat-256-13", "cat-1024-13", "cat-4096-12", "3121-256-9", "3121-4096-10"],
)
def test_window_certificate(matrix, n_dim, n):
    # The window leaves out at most 1e-14 of sum |chi_h(k/M)|, and K - 1
    # fails the certificate.
    obs, _, state, _ = _live_case(matrix, n_dim, n, 0.4137)
    m_time = state.lam ** state.n
    k_max = _half_width(state)
    assert _tail_mass(obs, m_time, k_max) <= 1e-14
    assert _certified(obs, m_time, k_max) and not _certified(obs, m_time, k_max - 1)


def test_half_width_cap_precedes_certificate():
    # At n = 370, M^2 = lam^740 leaves the float range and mu underflows to
    # 0, where line_tail_bound divides by zero: certified_radius refuses
    # mu = 0 before its search starts.
    obs, _, state, target = _live_case(_CAT, 256, 370, 0.4137)
    mu = _mu(obs, state.lam ** state.n)
    assert mu == 0.0
    with pytest.raises(ZeroDivisionError):
        line_tail_bound(1, mu)
    for call in (lambda: _half_width(state), lambda: damped_birkhoff_sum(state, target)):
        with pytest.raises(TruncationOverflowError, match="^window curvature 0.0 is not positive$"):
            call()


def test_support_half_width_zero_window():
    # At M = 1, |chi_h(+-1)| is far below 1e-14: the window is the smallest,
    # K = 1, and the sum is its k = 0 term, the profile at the start s' = s0.
    for obs in _GAUSSIAN_OBS.values():
        state, target = _sum_args(obs, obs.s0, 1.0)
        want, mass = _full_window_sum(obs, gaussian_damping(obs), obs.s0, 1.0)
        assert _half_width(state) == 1 and mass == abs(obs.profile(0.0))
        assert abs(damped_birkhoff_sum(state, target) - want) <= _DROPPED + _ROUNDING * mass


def test_support_half_width_cap():
    # At N = 256, n = 30 the certified K is about 7.7e11, past the 5e7 cap:
    # the sum raises before it forms any array.
    _, _, state, target = _live_case(_CAT, 256, 30, 0.4137)
    start = time.perf_counter()
    with TracedPeak() as peak, pytest.raises(TruncationOverflowError,
                                             match=r"^certified radius \d+ is above the cap 50000000$"):
        damped_birkhoff_sum(state, target)
    assert time.perf_counter() - start < 1.0
    assert peak.mib < 1.0


def _skew(obs):
    """(alpha, N) of the skew map that the sum reads from ``obs``."""
    return math.tan(obs.theta), round(1.0 / obs.h)


def _full_window_sum(obs, chi, x, m_time):
    """Oracle: the damped sum of ``obs`` from (x, 0) term by term, past the
    kernel's window out to where |chi| < 1e-30 and with no live-term mask
    (chi, the profile, a float64 ``cis_turns`` and a ``cis_turns`` of the
    long-double orbit phase reduced by ``frac_turns``, per term).  Returns
    the sum and the sum of the moduli.

    x_k = x + k alpha is rounded in float64 as the kernel rounds it: the
    phase q0 d_k / h scales an ulp of x_k by 1/h, so another rounding of
    x_k would move the sum by more than the truncation bounded here."""
    k_max = _negligible_radius(obs, m_time)
    k = np.arange(-k_max, k_max + 1)
    alpha, n_dim = _skew(obs)
    alpha_l = np.longdouble(alpha)
    k_l = np.asarray(k, dtype=np.longdouble)
    xs = x + k * alpha
    y_turns = k_l * k_l * (n_dim // 2) * alpha_l + k_l * n_dim * np.longdouble(x)
    d = circle_distance(xs, obs.s0)
    terms = (
        np.asarray(chi(k / m_time), dtype=complex)
        * obs.profile(d / math.sqrt(obs.h))
        * cis_turns(obs.q0 * d * (1.0 / obs.h))
        * cis_turns(frac_turns(y_turns))
    )
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


# What the kernel leaves out: at most 1e-14 past its certified window and
# 1e-14 in the pruned terms.  Plus a rounding allowance per unit of
# sum |term| for one complex exp per term instead of four factors and for
# the shorter sum; the cases below deviate by at most 0.3 eps sum |term|.
_TAIL = 1e-14
_DROPPED = 2 * _TAIL
_ROUNDING = 16 * np.finfo(float).eps


def _live_case(m, n_dim, n, x):
    """The oracle observable and its derived window chi_h at N = ``n_dim``,
    and the sum arguments: the damped Lagrangian state of ``m`` at time n
    whose s' is the abscissa s0 + x, and the target (q0, p0)."""
    sd = spectral_data(m)
    obs = InterferenceObservable(q0=0.31, p0=0.87, theta=sd.theta, h=1.0 / n_dim,
                                 beta=damping_coefficient(m))
    state = make_damped_lagrangian(m, n, obs.h, center=(0.0, (obs.s0 + x) % 1.0))
    return obs, gaussian_damping(obs), state, TorusPoint(obs.q0, obs.p0)


def _start_and_scale(state):
    """The start s' and the window scale M = lam^n that the sum reads."""
    return state.s_prime, state.lam ** state.n


@pytest.mark.parametrize(
    "matrix, n_dim, n, x",
    [
        (_CAT, 256, 12, 0.4137),
        (_CAT, 4096, 12, 0.7702),
        (_CAT, 4096, 13, 0.2466),
        (_CAT, 4096, 16, 0.5873),
        # Start within 1/N of s0: the k = 0 term has the largest profile.
        (_CAT, 256, 13, 0.6 / 256),
        (_CAT, 4096, 13, -0.3 / 4096),
        # Complex beta.
        (_M3121, 256, 9, 0.3318),
        (_M3121, 4096, 10, 0.2 / 4096),
    ],
    ids=["cat-256-12", "cat-4096-12", "cat-4096-13", "cat-4096-16",
         "cat-256-13-near-s0", "cat-4096-13-near-s0", "3121-256-9", "3121-4096-10-near-s0"],
)
def test_live_term_sum_matches_full_window(matrix, n_dim, n, x):
    obs, chi, state, target = _live_case(matrix, n_dim, n, x)
    want, mass = _full_window_sum(obs, chi, *_start_and_scale(state))
    got = damped_birkhoff_sum(state, target)
    assert abs(got - want) <= _DROPPED + _ROUNDING * mass


def _whole_window_live_terms(obs, x, m_time, k_max):
    """Oracle for the blocked walk: the whole window k = -K..K at once.
    Each term is the one exponential exp(c_uu u^2 + c_dd d^2 + 2 i pi turns)
    (u = k/M, d the circle distance of x + k alpha to s0, turns = q0 d / h
    plus the orbit phase y_k), and it is live when the real part of its
    exponent is at least ln(1e-14 / (2K+1)).  Returns the live k and their
    terms."""
    alpha, n_dim = _skew(obs)
    c_uu = -math.pi * complex(obs.beta) / obs.h
    c_dd = -math.pi * math.cos(obs.theta) ** 2 * complex(1.0, alpha) / obs.h
    k = np.arange(-k_max, k_max + 1)
    u = k / m_time
    uu = u * u
    d = circle_distance(x + k * alpha, obs.s0)
    dd = d * d
    live = c_uu.real * uu + c_dd.real * dd >= math.log(_TAIL / k.size)
    k, uu, d, dd = k[live], uu[live], d[live], dd[live]
    turns = mod1(obs.q0 * d * (1.0 / obs.h)) + mod1(orbit_turns(alpha, n_dim, k, x))
    return k, np.exp(c_uu * uu + c_dd * dd + 2j * math.pi * turns)


_B = birkhoff._BLOCK


@pytest.mark.parametrize(
    "k_max, block", [(_B // 2 - 1, None), (_B // 2 - 1, _B - 1), (_B // 2, None), (_B + 3, None)],
    ids=["block-1", "block", "block+1", "two-blocks+7"],
)
def test_live_term_sum_across_blocks(monkeypatch, k_max, block):
    # 2K + 1 is odd, so the window is one term short of or past a block of
    # 2^13; the "block" case shrinks the block to 2K + 1.  The start sits at
    # distance 0 from s0 after K steps, so the k = K term is live.
    if block is not None:
        monkeypatch.setattr(birkhoff, "_BLOCK", block)
    obs, chi, _, _ = _live_case(_CAT, 256, 0, 0.0)
    m_time = _certified_edge(obs, k_max)
    x = (obs.s0 - k_max * _skew(obs)[0]) % 1.0
    state, target = _sum_args(obs, x, m_time)
    assert _half_width(state) == k_max
    live = np.concatenate([k for k, _ in _live_blocks(state, target, k_max)])
    want_live, terms = _whole_window_live_terms(obs, x, m_time, k_max)
    assert k_max in want_live and np.array_equal(live, want_live)
    got = damped_birkhoff_sum(state, target)
    # Blocking changes no term: the sum is each block's np.sum, added in
    # ascending k.
    block_of = (want_live + k_max) // birkhoff._BLOCK
    assert got == sum(np.sum(terms[block_of == j]) for j in np.unique(block_of))
    full, mass = _full_window_sum(obs, chi, x, m_time)
    assert abs(got - full) <= _DROPPED + _ROUNDING * mass


def _skew_orbit_turns(alpha, n_dim, x, steps):
    """y_k mod 1 for k = -steps..steps in ascending order, as float64, where
    (x_k, y_k) = T^k (x, 0) under the skew map
    T(x, y) = (x + alpha, y + N x + beta) mod 1, beta = alpha N / 2: T and
    T^-1 stepped one step at a time in exact rational arithmetic from the
    floats ``alpha`` and ``x``."""
    alpha, x0 = Fraction(alpha), Fraction(x)
    beta = alpha * n_dim / 2
    x, y, forward = x0, Fraction(0), []
    for _ in range(steps):
        x, y = (x + alpha) % 1, (y + n_dim * x + beta) % 1
        forward.append(float(y))
    x, y, backward = x0, Fraction(0), []
    for _ in range(steps):
        x = (x - alpha) % 1
        y = (y - n_dim * x - beta) % 1
        backward.append(float(y))
    return np.array([*backward[::-1], 0.0, *forward])


_ORBIT_STEPS = 10_000


@pytest.mark.parametrize("matrix, n", [(_CAT, 11), (_M3121, 8)], ids=["cat", "3121"])
def test_orbit_phases_are_the_skew_map_orbit(matrix, n):
    # With q0 = 0 the turns of term k are y_k mod 1, the second coordinate
    # of T^k (s', 0).  At N = 16 the window holds more than 10^4 terms each
    # side and every one with |k| <= 10^4 is live, so each of those turns is
    # checked against the exact orbit.  The kernel forms y_k in long double,
    # within about eps |y_k|; what it does to the phase after that is float64
    # rounding of numbers below 10.
    n_dim = 16
    h = 1.0 / n_dim
    state = make_damped_lagrangian(matrix, n, h, center=(0.0, 0.3173))
    target = TorusPoint(0.0, 0.6)
    k_max = _half_width(state)
    assert k_max >= _ORBIT_STEPS
    t = math.tan(state.theta)
    m_time = state.lam ** state.n
    c_uu = -math.pi * complex(state.beta) / h
    c_dd = -math.pi * math.cos(state.theta) ** 2 * complex(1.0, t) / h
    ks, turns = [], []
    for k, expo in _live_blocks(state, target, k_max):
        near = np.abs(k) <= _ORBIT_STEPS
        k, expo = k[near], expo[near]
        u = k / m_time
        d = circle_distance(state.s_prime + k * t, target.p)
        rest = c_uu * (u * u) + c_dd * (d * d)
        ks.append(k)
        turns.append((expo.imag - rest.imag) / (2.0 * math.pi))
    k = np.concatenate(ks)
    assert np.array_equal(k, np.arange(-_ORBIT_STEPS, _ORBIT_STEPS + 1))
    err = np.concatenate(turns) - _skew_orbit_turns(t, n_dim, state.s_prime, _ORBIT_STEPS)
    err -= np.rint(err)
    y_max = float(np.max(np.abs(k * k * (n_dim / 2) * t + k * n_dim * state.s_prime)))
    assert np.max(np.abs(err)) <= 2.0 * np.finfo(np.longdouble).eps * y_max


def test_live_mask_keeps_few_terms(cat):
    # The saving, pinned by a count: at n = 13 the blocked walk keeps 45% of
    # the window at N = 256 and 11% at N = 4096.
    for n_dim, share in ((256, 0.60), (4096, 0.20)):
        for x in (0.1, 0.45, 0.8):
            obs, chi, state, target = _live_case(cat, n_dim, 13, x)
            x0, m_time = _start_and_scale(state)
            k_max = _half_width(state)
            k = np.arange(-k_max, k_max + 1)
            live = np.isin(k, np.concatenate([kk for kk, _ in _live_blocks(state, target, k_max)]))
            assert 0 < np.count_nonzero(live) <= share * k.size
            # What the mask drops is below the certified tail.
            dropped = np.abs(chi(k[~live] / m_time)) * np.abs(
                obs.profile(circle_distance(x0 + k[~live] * _skew(obs)[0], obs.s0)
                            / math.sqrt(obs.h)))
            assert np.sum(dropped) <= _TAIL


@pytest.mark.parametrize("n_dim, n", [(4096, 18), (256, 16)])
def test_damped_sum_memory(cat, n_dim, n):
    # Windows of 3.3e6 and 1.9e6 terms: a sum that held whole-window arrays
    # peaked at 155 and 101 MB, one that kept the live terms (12% and 49% of
    # the window) until the end at 11.7 and 26.8 MiB.  Summed block by block
    # it holds one block.
    _, _, state, target = _live_case(cat, n_dim, n, 0.4137)
    with TracedPeak() as peak:
        damped_birkhoff_sum(state, target)
    assert peak.mib < 2.0


def test_observable_invariants(cat, rng):
    from conftest import random_hyperbolic

    for _ in range(10):
        m = random_hyperbolic(rng)
        sd = spectral_data(m)
        obs = InterferenceObservable(q0=0.1, p0=0.9, theta=sd.theta, h=1.0 / 16.0,
                                     beta=damping_coefficient(m))
        assert obs.gamma0.real > 0
    sd = spectral_data(cat)
    obs = InterferenceObservable(q0=0.3, p0=0.7, theta=sd.theta, h=1.0 / 16.0,
                                 beta=damping_coefficient(cat))
    us = np.linspace(-2.0, 2.0, 21)
    t = math.tan(sd.theta)
    ref = np.exp(-math.pi * math.cos(sd.theta) ** 2 * (1.0 + 1j * t) * us ** 2)
    assert np.max(np.abs(obs.profile(us) - ref)) < 1e-10
    # k = 0 value of the Birkhoff observable: F0(d/sqrt(h)) e^{2 i pi q0 d / h}.
    s_prime = 0.234
    d = circle_distance(s_prime, obs.s0)
    want = obs.profile(d / math.sqrt(obs.h)) * cis_turns(obs.q0 * d * 16.0)
    assert abs(obs.eval(s_prime, 0.0) - want) < 1e-12


def test_interference_term_phase_reduction(cat):
    # The closed-form banded term <boxed L, T_(m,k(m)) Phi_dst> factors exactly
    # into (config phase) x F0(d/sqrt h) x e^{2 i pi q0 d / h}
    #   x e^{i pi tan m^2 / h} x e^{2 i pi m s'/h} x (transverse remainder).
    sd = spectral_data(cat)
    t = math.tan(sd.theta)
    n_dim, n = 64, 4
    h = 1.0 / n_dim
    big_a, big_b = 3.262, 2.771  # an arbitrary plane lift
    state = make_damped_lagrangian(cat, n, h, center=(big_a, big_b))
    q0, p0 = 0.31, 0.87
    target = TorusPoint(q0, p0)
    s0 = p0 - t * q0
    c_h = (2.0 / h) ** 0.25
    lam_c = 1.0 - 1j * t + state.beta * state.damping_scale
    beta_n = state.beta * state.damping_scale
    p_cplx = 1.0 / lam_c
    alpha_n = p_cplx - math.cos(sd.theta) ** 2 * (1.0 + 1j * t)
    form = lagrangian_overlap_field(state)
    for m in (-9, -2, 0, 1, 7, 13):
        k = band_rows(state, target, m)
        q, p = q0 + m, p0 + k
        direct = cis_turns(-k * q0 * n_dim) * form.terms(q, p)
        d = band_distance(state, target, m)
        w = q * (t + 1j) - d
        u = beta_n * big_a
        a3 = w * w * alpha_n + (2j * u * w - u * u) * p_cplx + beta_n * big_a ** 2
        reduced = (
            math.sqrt(h) * state.norm_constant * c_h / np.sqrt(lam_c)
            * cis_turns(t * q0 * q0 * n_dim / 2.0)
            * cis_turns(q0 * s0 * n_dim)
            * np.exp(-math.pi * a3 / h)
            * np.exp(-math.pi * math.cos(sd.theta) ** 2 * (1.0 + 1j * t) * d * d / h)
            * cis_turns(q0 * d * n_dim)
            * cis_turns(t * m * m * n_dim / 2.0)
            * cis_turns(m * state.s_prime * n_dim)
        )
        assert abs(direct - reduced) < 1e-10 * max(abs(direct), 1e-6)


def test_theorem_rhs_threshold_and_truncation(cat):
    sd = spectral_data(cat)
    h = 1.0 / 64.0
    with pytest.raises(ThresholdViolationError):
        theorem_rhs(cat, 0, h, TorusPoint(0, 0), TorusPoint(0, 0))
    # Damping truncation: widening the window past the certified one is invisible.
    n = 4
    obs = InterferenceObservable(q0=0.3, p0=0.7, theta=sd.theta, h=h,
                                 beta=damping_coefficient(cat))
    chi = gaussian_damping(obs)
    base = damped_birkhoff_sum(make_damped_lagrangian(cat, n, h, center=(0.0, 0.2)),
                               TorusPoint(0.3, 0.7))
    k_wide = int(6 * sd.lam ** n)
    ks = np.arange(-k_wide, k_wide + 1)
    xs = 0.2 + ks * math.tan(sd.theta)
    ys = (ks * ks * 32 * math.tan(sd.theta) + ks * 64 * 0.2) % 1.0
    wide = complex(np.sum(np.asarray(chi(ks / sd.lam ** n)) * np.asarray(obs.eval(xs, ys))))
    assert abs(base - wide) <= 1e-12 * max(abs(wide), 1.0)


@pytest.mark.parametrize("n", [2000, 20_000_000])
def test_theorem_rhs_huge_n_fails_typed(cat, n):
    # Propagation refuses both times before n = 390.  The exact power M^n
    # used to come first: at n = 2000 its image left the float range (a bare
    # OverflowError), and at n = 2e7 it was still being formed after 20 s.
    with pytest.raises(NumericalToleranceError):
        theorem_rhs(cat, n, 1.0 / 16, TorusPoint(0.3, 0.7), TorusPoint(0.6, 0.2))


def test_theorem_rhs_long_time_memory_is_blocked(cat):
    # The cat map at N = 256, n = 17, a damping window of 4.3e6 terms: the
    # block-by-block sum peaks near 0.9 MiB; one that kept every live term
    # peaked near 70 MiB, and one that forms whole-window arrays near 340 MiB.
    with TracedPeak() as peak:
        theorem_rhs(cat, 17, 1.0 / 256, TorusPoint(0.3, 0.7), TorusPoint(0.6, 0.2))
    assert peak.mib < 8.0


def test_theorem_rhs_origin_pair(cat):
    # src = dst = (0,0): s' = 0, the windowed sum over the rotation orbit of 0.
    sd = spectral_data(cat)
    h = 1.0 / 64.0
    n = 4
    val = theorem_rhs(cat, n, h, TorusPoint(0.0, 0.0), TorusPoint(0.0, 0.0))
    lhs = matrix_element_exact(cat, n, TorusPoint(0.0, 0.0), TorusPoint(0.0, 0.0), 64)
    assert abs(val - lhs) < 5.0 * math.sqrt(h) * sd.lam ** (-0.5 * n)


def test_fitted_constant_predicts_other_configs(cat):
    sd = spectral_data(cat)
    d_fit = fit_theorem_constant(cat, seed=20240901)
    assert abs(d_fit) == pytest.approx(1.0, abs=0.15)  # assembly leaves only a near-unit constant
    rng = np.random.default_rng(77)
    for n_dim in (16, 64):
        h = 1.0 / n_dim
        te = ehrenfest_time(h, sd.lam)
        n = 2 * math.ceil(te)
        src = TorusPoint(float(rng.uniform()), float(rng.uniform()))
        dst = TorusPoint(float(rng.uniform()), float(rng.uniform()))
        lhs = matrix_element_exact(cat, n, src, dst, n_dim)
        rhs = theorem_rhs(cat, n, h, src, dst, d_fit)
        assert abs(lhs - rhs) <= 5.0 * math.sqrt(h) * sd.lam ** (-0.5 * n)
    # The seeded stream rejects a negative seed, as numpy's does, rather than
    # splitting it into 32-bit words forever.
    with pytest.raises(ValueError):
        fit_theorem_constant(cat, seed=-1)


def _theorem_table(n_values, n_times):
    """The theorem experiment's table for the cat map and one point pair."""
    cfg = ExperimentConfig(matrix=(2, 1, 1, 1), N_values=n_values, n_mode="absolute",
                           n_values=n_times, points=((0.1, 0.2), (0.3, 0.4)),
                           grid_resolution=16, seed=20240901)
    table = run_theorem(cfg).table
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_theorem_error_table_structure(cat):
    rows = _theorem_table((16, 64), (1, 4))
    assert [(r["N"], r["n"]) for r in rows] == [(16, 1), (16, 4), (64, 1), (64, 4)]
    cols = rows[0]
    assert cols["N"] == 16 and cols["n"] == 1
    assert cols["below_threshold"] in (False, True)
    # n = 1 is above (1/3)|log h|/log lam = 0.96 for N = 16: not flagged.
    assert cols["below_threshold"] is False
    assert rows[2]["N"] == 64 and rows[2]["n"] == 1
    assert rows[2]["below_threshold"] is True


def test_threshold_flag_matches_rhs_guard(cat):
    # The table's flag and theorem_rhs's guard share validity_threshold: at
    # N = 64 it is 1.44, so of n = 1, 2, 3 exactly the n = 1 row is flagged,
    # and exactly there theorem_rhs without the opt-in refuses.
    h = 1.0 / 64.0
    assert validity_threshold(h, spectral_data(cat).lam) == pytest.approx(1.44, abs=0.005)
    rows = _theorem_table((64,), (1, 2, 3))
    assert [r["n"] for r in rows] == [1, 2, 3]
    for r in rows:
        src, dst = TorusPoint(r["src_q"], r["src_p"]), TorusPoint(r["dst_q"], r["dst_p"])
        try:
            theorem_rhs(cat, r["n"], h, src, dst)
            refused = False
        except ThresholdViolationError:
            refused = True
        assert r["below_threshold"] is refused
        assert refused is (r["n"] == 1)


def test_theorem_pipeline_nonsymmetric_matrix():
    # End-to-end sanity on a nonsymmetric trace > 2 matrix: with a freshly
    # fitted constant the prediction stays within the remainder-law budget.
    from qcat.classical import Sl2IntMatrix

    m = Sl2IntMatrix(3, 2, 1, 1)
    sd = spectral_data(m)
    n_dim = 64
    h = 1.0 / n_dim
    d_fit = fit_theorem_constant(m, seed=11)  # fitted at N = 64
    rng = np.random.default_rng(4)
    n = math.ceil(1.5 * ehrenfest_time(h, sd.lam))
    for _ in range(4):
        src = TorusPoint(float(rng.uniform()), float(rng.uniform()))
        dst = TorusPoint(float(rng.uniform()), float(rng.uniform()))
        lhs = matrix_element_exact(m, n, src, dst, n_dim)
        rhs = theorem_rhs(m, n, h, src, dst, d_fit)
        assert abs(lhs - rhs) <= 5.0 * math.sqrt(h) * sd.lam ** (-0.5 * n)


@pytest.mark.parametrize("matrix", [_M3121, Sl2IntMatrix(2, 3, 1, 2)],
                         ids=["3121", "2312"])
def test_unit_constant_prediction_nonsymmetric(matrix):
    # D = 1 against the lattice LHS at N = 64, n = 5.  The amplitude factor
    # (Re beta cos^2)^(1/4) is 0.980 and 0.931 here; without it the same
    # pairs give residual/bound up to 1.15 and 3.05.
    sd = spectral_data(matrix)
    n_dim, n = 64, 5
    h = 1.0 / n_dim
    rng = np.random.default_rng(0)
    for _ in range(4):
        src = TorusPoint(float(rng.uniform()), float(rng.uniform()))
        dst = TorusPoint(float(rng.uniform()), float(rng.uniform()))
        lhs = matrix_element_exact(matrix, n, src, dst, n_dim)
        rhs = theorem_rhs(matrix, n, h, src, dst)
        assert abs(lhs - rhs) < math.sqrt(h) * sd.lam ** (-0.5 * n)


@pytest.mark.parametrize("entries, n", [((-2, -1, -1, -1), 8), ((-3, -1, -2, -1), 5),
                                        ((-3, -1, -2, -1), 6), ((0, 1, -1, 3), 8),
                                        ((0, 1, -1, -3), 8)])
def test_unit_constant_prediction_whole_family(entries, n):
    # Trace < -2 (n = 5 is odd) and a = 0 take the direct formula with D = 1
    # and no parity bookkeeping, at 2.4-2.8 t_E for N = 256.
    m = Sl2IntMatrix(*entries)
    lam = spectral_data(m).lam
    n_dim = 256
    h = 1.0 / n_dim
    points = seeded_points(11, 8)
    for src, dst in zip(points[::2], points[1::2]):
        lhs = matrix_element_exact(m, n, src, dst, n_dim)
        rhs = theorem_rhs(m, n, h, src, dst)
        assert abs(lhs - rhs) <= math.sqrt(h) * lam ** (-0.5 * n)
