from __future__ import annotations

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (_exact_frac, _support_half_width, _window, orbit_points, scanned_birkhoff_sum,
                      skew_apply, skew_iterate)
from qcat import birkhoff
from qcat.classical import (Sl2IntMatrix, TorusPoint, ehrenfest_time, spectral_data,
                            validity_threshold)
from qcat.errors import OddNError, ThresholdViolationError, TruncationOverflowError
from qcat.birkhoff import (
    InterferenceObservable,
    SkewMap,
    _half_width,
    _live_blocks,
    damped_birkhoff_sum,
    fit_theorem_constant,
    gaussian_damping,
    theorem_rhs,
)
from qcat.harness import ExperimentConfig, run_theorem
from qcat.lagrangian import (
    BandIndexer,
    circle_distance,
    damping_coefficient,
    lagrangian_overlap_field,
    make_damped_lagrangian,
)
from qcat.metaplectic import cis_turns
from qcat.torus import matrix_element_exact


def test_skew_apply_examples():
    t_map = SkewMap(alpha=0.37, N=4)
    assert skew_apply(t_map, (0.0, 0.0)) == (
        pytest.approx(0.37), pytest.approx((2 * 0.37) % 1.0)
    )
    # Two steps from the origin: (2 alpha, 8 alpha) mod 1 at N = 4.
    two = skew_apply(t_map, skew_apply(t_map, (0.0, 0.0)))
    assert two[0] == pytest.approx((2 * 0.37) % 1.0, abs=1e-12)
    assert two[1] == pytest.approx((8 * 0.37) % 1.0, abs=1e-12)
    assert skew_iterate(t_map, (0.0, 0.0), 2)[1] == pytest.approx((8 * 0.37) % 1.0, abs=1e-12)
    with pytest.raises(OddNError):
        SkewMap(alpha=0.37, N=5)


def test_skew_iterate_matches_composition(rng):
    t_map = SkewMap(alpha=float(rng.uniform(0, 1)), N=6)
    pt = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
    it = pt
    for _ in range(7):
        it = skew_apply(t_map, it)
    closed = skew_iterate(t_map, pt, 7)
    assert abs(circle_distance(it[0], closed[0])) < 1e-12
    assert abs(circle_distance(it[1], closed[1])) < 1e-12
    assert skew_iterate(t_map, pt, 0) == pt
    one = skew_iterate(t_map, pt, 1)
    app = skew_apply(t_map, pt)
    assert abs(circle_distance(one[0], app[0])) < 1e-14
    assert abs(circle_distance(one[1], app[1])) < 1e-14


def test_skew_iterate_long_time_exactness(cat):
    # Exact-rational one-step iteration against the closed form at m = 10^4.
    sd = spectral_data(cat)
    t_map = SkewMap(alpha=sd.tan_theta, N=64)
    alpha = Fraction(t_map.alpha)
    beta = alpha * t_map.N / 2
    x, y = Fraction(0.3262233), Fraction(0.7154)
    for _ in range(10_000):
        x, y = (x + alpha) % 1, (y + t_map.N * x + beta) % 1
    closed = skew_iterate(t_map, (0.3262233, 0.7154), 10_000)
    assert abs(circle_distance(float(x), closed[0])) < 1e-10
    assert abs(circle_distance(float(y), closed[1])) < 1e-10


def test_skew_inverse_roundtrip(cat):
    sd = spectral_data(cat)
    t_map = SkewMap(alpha=sd.tan_theta, N=16)
    pt = (0.123, 0.456)
    fwd = skew_iterate(t_map, pt, 137)
    back = skew_iterate(t_map, fwd, -137)
    assert abs(circle_distance(back[0], pt[0])) < 1e-9
    assert abs(circle_distance(back[1], pt[1])) < 1e-9


def test_phase_telescoping_identity(cat):
    # e^{2 i pi y_m} = exp(i pi N alpha m^2 + 2 i pi N m x0) when beta = alpha N / 2.
    sd = spectral_data(cat)
    n_dim = 16
    t_map = SkewMap(alpha=sd.tan_theta, N=n_dim)
    x0 = 0.377
    for m in (1, 5, 37, 200, 999):
        _, ym = skew_iterate(t_map, (x0, 0.0), m)
        direct = cis_turns(
            np.longdouble(m) * m * (n_dim // 2) * np.longdouble(t_map.alpha)
            + np.longdouble(m) * n_dim * np.longdouble(x0)
        )
        assert abs(cis_turns(ym) - direct) < 1e-9


def _indicator(u):
    uu = np.asarray(u, dtype=float)
    return ((uu >= 0.0) & (uu <= 1.0)).astype(float)


def test_damped_birkhoff_sum_basics(cat):
    sd = spectral_data(cat)
    t_map = SkewMap(alpha=sd.tan_theta, N=4)

    ones = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    m_time = 23
    val = scanned_birkhoff_sum(t_map, ones, _indicator, (0.3, 0.9), m_time)
    assert val == pytest.approx(m_time + 1)

    chi = lambda u: np.exp(-3.0 * np.asarray(u, dtype=float) ** 2)
    expected = sum(chi(k / 10.0) for k in range(-200, 201))
    for pt in [(0.1, 0.2), (0.9, 0.5)]:
        assert scanned_birkhoff_sum(t_map, ones, chi, pt, 10.0) == pytest.approx(expected)

    # Linearity in the observable: the live-term sum against the oracle.
    obs = InterferenceObservable(q0=0.3, p0=0.7, theta=sd.theta, h=0.25,
                                 beta=damping_coefficient(cat))
    f2 = lambda x, y: 2.0 * obs.eval(x, y)
    a = damped_birkhoff_sum(t_map, obs, (0.1, 0.0), 10.0)
    b = scanned_birkhoff_sum(t_map, f2, gaussian_damping(obs), (0.1, 0.0), 10.0)
    assert b == pytest.approx(2.0 * a)


def _scan_half_width(chi, m_time, cutoff=1e-14, consecutive=8):
    """Oracle: the damping window found by evaluating chi at one k at a time."""
    k = 0
    below = 0
    while below < consecutive:
        k += 1
        if abs(complex(np.asarray(chi(k / m_time), dtype=complex))) < cutoff:
            below += 1
        else:
            below = 0
        if k > 50_000_000:
            raise ValueError("damping window does not decay")
    return k - consecutive


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
_WINDOWS = {
    "indicator": _indicator,
    "gauss3": lambda u: np.exp(-3.0 * np.asarray(u, dtype=float) ** 2),
    **{name: gaussian_damping(obs) for name, obs in _GAUSSIAN_OBS.items()},
}


@pytest.mark.parametrize(
    "m_time", [1, 23, _LAM ** 6, _LAM ** 12, _LAM ** 13],
    ids=["1", "23", "lam^6", "lam^12", "lam^13"],
)
@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_support_half_width_matches_scan(window, m_time):
    chi = _WINDOWS[window]
    assert _support_half_width(chi, m_time) == _scan_half_width(chi, m_time)


@pytest.mark.parametrize(
    "m_time", [1, 23, _LAM ** 6, _LAM ** 12, _LAM ** 13, _LAM ** 16, _LAM ** 18],
    ids=["1", "23", "lam^6", "lam^12", "lam^13", "lam^16", "lam^18"],
)
@pytest.mark.parametrize("window", sorted(_GAUSSIAN_OBS))
def test_half_width_closed_form(window, m_time):
    # The block scan equals the one-k-at-a-time scan (test above) and reaches
    # lam^18, where K is about 6e6, in well under a second.
    obs = _GAUSSIAN_OBS[window]
    k_max = _half_width(obs, m_time)
    assert k_max == _support_half_width(gaussian_damping(obs), m_time)
    if m_time == 1:
        assert k_max == 0


@pytest.mark.parametrize("k_target", [1, 7, 4095])
@pytest.mark.parametrize("window", sorted(_GAUSSIAN_OBS))
def test_half_width_at_the_cutoff(window, k_target):
    # m_time within a few ulps of where |chi_h(k_target/m_time)| = 1e-14: the
    # floor of the closed form can land one past K, and the steps against
    # |chi_h| must bring it back.
    obs = _GAUSSIAN_OBS[window]
    scale = math.sqrt(obs.h * math.log(1e14) / obs.gamma0.real)
    for j in range(-6, 7):
        m_time = k_target / scale * (1.0 + j * 2.0 ** -52)
        assert _half_width(obs, m_time) == _support_half_width(gaussian_damping(obs), m_time)


@pytest.mark.parametrize(
    "support",
    [range(1, last + 1) for last in (1016, 1017, 1020, 1023, 1024)]
    + [[*range(1, 1021), 1026], [*range(1, 1021), 1029]],
    ids=lambda support: f"up_to_{max(support)}",
)
def test_support_half_width_runs_across_blocks(support):
    # The first block holds k = 1..1024: a run of |chi| < cutoff that starts
    # near its end is completed, or broken, by the next block.
    ks = np.array(list(support), dtype=float)
    chi = lambda u: np.isin(np.asarray(u, dtype=float), ks).astype(float)
    assert _support_half_width(chi, 1) == _scan_half_width(chi, 1)


def test_support_half_width_zero_window():
    narrow = lambda u: np.exp(-40.0 * np.asarray(u, dtype=float) ** 2)
    zero = lambda u: 0.0  # a scalar for every input, as chi may return
    for chi in (narrow, zero):
        assert _support_half_width(chi, 1.0) == _scan_half_width(chi, 1.0) == 0


def test_support_half_width_cap():
    # At N = 256, n = 30 the closed-form K is about 6e11, past the 5e7 cap:
    # the sum raises before it forms any array.
    t_map, obs, _, pt, m_time = _live_case(_CAT, 256, 30, 0.4137)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(TruncationOverflowError, match="exceeds the cap 50000000"):
            damped_birkhoff_sum(t_map, obs, pt, m_time)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2 ** 20


def _whole_window(chi, m_time):
    """Oracle: the window with chi evaluated once on all of k = -K..K, as
    before the scanned blocks were reused."""
    k_max = _support_half_width(chi, m_time)
    k = np.arange(-k_max, k_max + 1)
    return k, np.broadcast_to(np.asarray(chi(k / m_time), dtype=complex), k.shape)


@pytest.mark.parametrize("m_time", [1, 23, _LAM ** 6, _LAM ** 13], ids=["1", "23", "lam^6", "lam^13"])
@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_window_matches_whole_window(window, m_time):
    chi = _WINDOWS[window]
    k, chi_k = _window(chi, m_time)
    want_k, want_chi = _whole_window(chi, m_time)
    assert np.array_equal(k, want_k) and np.array_equal(chi_k, want_chi)


@pytest.mark.parametrize("last", [0, 1016, 1020, 1024, 1029, 3100])
def test_window_matches_whole_window_across_blocks(last):
    # The indicator of |k| <= last: K = last lands inside the first block of
    # the scan, at its end, in the flags carried into the next, or past it.
    chi = lambda u: ((np.asarray(u, dtype=float) >= -last) & (np.asarray(u, dtype=float) <= last)
                     ).astype(float)
    k, chi_k = _window(chi, 1)
    want_k, want_chi = _whole_window(chi, 1)
    assert k.size == 2 * last + 1
    assert np.array_equal(k, want_k) and np.array_equal(chi_k, want_chi)


def test_exact_frac_matches_fraction():
    rng = np.random.default_rng(2024)
    mults = [0, 1, -1, 7, -7, 10 ** 9, -(10 ** 9),
             *(int(v) for v in rng.integers(-10 ** 9, 10 ** 9, 2000))]
    values = [0.0, 0.5, -0.5, 1.0 / 3.0, -math.pi, 1e-300, 2.0 ** 60 + 0.0,
              *(float(v) for v in rng.uniform(-10.0, 10.0, 50))]
    for mult in mults:
        for value in values:
            f = Fraction(mult) * Fraction(value)
            want = float(f - (f.numerator // f.denominator))
            assert _exact_frac(mult, value) == want


def _full_window_sum(t_map, obs, chi, pt, m_time):
    """Oracle: the damped sum of ``obs`` over the whole window, term by term
    as before the live-term mask (the profile and two long-double
    ``cis_turns`` per term).  Returns the sum and the sum of the moduli."""
    k_max = _support_half_width(chi, m_time)
    k = np.arange(-k_max, k_max + 1)
    x, y = pt
    alpha_l = np.longdouble(t_map.alpha)
    k_l = np.asarray(k, dtype=np.longdouble)
    xs = x + np.asarray(k_l * alpha_l, dtype=np.float64)
    y_turns = y + k_l * k_l * (t_map.N // 2) * alpha_l + k_l * t_map.N * np.longdouble(x)
    d = circle_distance(xs, obs.s0)
    terms = (
        np.asarray(chi(k / m_time), dtype=complex)
        * obs.profile(d / math.sqrt(obs.h))
        * cis_turns(obs.q0 * d * (1.0 / obs.h))
        * cis_turns(y_turns)
    )
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


# The certified tail of the dropped terms, plus a rounding allowance per unit
# of sum |term| for one complex exp per term instead of three and for the
# shorter sum; the cases below deviate by at most 0.4 eps sum |term|.
_LIVE_TAIL = 1e-14
_ROUNDING = 16 * np.finfo(float).eps


def _live_case(m, n_dim, n, x, y=0.0):
    """Sum arguments at N = ``n_dim``, m_time = lam^n, from the point s0 + x,
    with the derived window chi_h for the oracles."""
    sd = spectral_data(m)
    obs = InterferenceObservable(q0=0.31, p0=0.87, theta=sd.theta, h=1.0 / n_dim,
                                 beta=damping_coefficient(m))
    t_map = SkewMap(alpha=sd.tan_theta, N=n_dim)
    return t_map, obs, gaussian_damping(obs), ((obs.s0 + x) % 1.0, y), sd.lam ** n


@pytest.mark.parametrize(
    "matrix, n_dim, n, x, y",
    [
        (_CAT, 256, 12, 0.4137, 0.0),
        (_CAT, 256, 13, 0.1291, 0.37),
        (_CAT, 4096, 12, 0.7702, 0.0),
        (_CAT, 4096, 13, 0.2466, 0.0),
        (_CAT, 4096, 16, 0.5873, 0.0),
        # Start within 1/N of s0: the k = 0 term has the largest profile.
        (_CAT, 256, 13, 0.6 / 256, 0.0),
        (_CAT, 4096, 13, -0.3 / 4096, 0.0),
        # Complex beta.
        (_M3121, 256, 9, 0.3318, 0.0),
        (_M3121, 4096, 10, 0.9051, 0.21),
        (_M3121, 4096, 10, 0.2 / 4096, 0.0),
    ],
    ids=["cat-256-12", "cat-256-13-y", "cat-4096-12", "cat-4096-13", "cat-4096-16",
         "cat-256-13-near-s0", "cat-4096-13-near-s0", "3121-256-9", "3121-4096-10-y",
         "3121-4096-10-near-s0"],
)
def test_live_term_sum_matches_full_window(matrix, n_dim, n, x, y):
    t_map, obs, chi, pt, m_time = _live_case(matrix, n_dim, n, x, y)
    want, mass = _full_window_sum(t_map, obs, chi, pt, m_time)
    got = damped_birkhoff_sum(t_map, obs, pt, m_time)
    assert abs(got - want) <= _LIVE_TAIL + _ROUNDING * mass


def _window_live_k(t_map, obs, x, m_time, k_max):
    """Oracle for the blocked walk: the live k of the whole window at once."""
    k = np.arange(-k_max, k_max + 1)
    u = k / m_time
    v = circle_distance(x + k * t_map.alpha, obs.s0) / math.sqrt(obs.h)
    bound = (np.exp(-obs.gamma0.real * u * u / obs.h)
             * np.exp(-math.pi * math.cos(obs.theta) ** 2 * v * v))
    return k[bound >= _LIVE_TAIL / k.size]


def _whole_window_live_sum(t_map, obs, pt, m_time, live_k):
    """Oracle for the blocked sum: the terms of ``live_k`` formed in one go
    and summed by one ``np.sum``."""
    terms = gaussian_damping(obs)(live_k / m_time) * obs.eval(*orbit_points(t_map, live_k, pt))
    return complex(np.sum(terms))


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
    t_map, obs, chi, _, _ = _live_case(_CAT, 256, 0, 0.0)
    m_time = (k_max + 0.5) / math.sqrt(obs.h * math.log(1e14) / obs.gamma0.real)
    pt = ((obs.s0 - k_max * t_map.alpha) % 1.0, 0.0)
    assert _half_width(obs, m_time) == k_max
    live = np.concatenate(list(_live_blocks(t_map, obs, pt[0], m_time, k_max)))
    want_live = _window_live_k(t_map, obs, pt[0], m_time, k_max)
    assert k_max in want_live and np.array_equal(live, want_live)
    got = damped_birkhoff_sum(t_map, obs, pt, m_time)
    # Blocking changes neither a term nor the order of the sum.
    assert got == _whole_window_live_sum(t_map, obs, pt, m_time, want_live)
    want, mass = _full_window_sum(t_map, obs, chi, pt, m_time)
    assert abs(got - want) <= _LIVE_TAIL + _ROUNDING * mass


def test_live_mask_keeps_few_terms(cat):
    # The saving, pinned by a count: at n = 13 the blocked walk keeps 47% of
    # the window at N = 256 and 11.5% at N = 4096.
    for n_dim, share in ((256, 0.60), (4096, 0.20)):
        for x in (0.1, 0.45, 0.8):
            t_map, obs, chi, pt, m_time = _live_case(cat, n_dim, 13, x)
            k, chi_k = _window(chi, m_time)
            k_max = _half_width(obs, m_time)
            live_k = np.concatenate(list(_live_blocks(t_map, obs, pt[0], m_time, k_max)))
            live = np.isin(k, live_k)
            assert 0 < np.count_nonzero(live) <= share * k.size
            # What the mask drops is below the certified tail.
            dropped = np.abs(chi_k[~live]) * np.abs(
                obs.profile(circle_distance(pt[0] + k[~live] * t_map.alpha, obs.s0)
                            / math.sqrt(obs.h)))
            assert np.sum(dropped) <= _LIVE_TAIL


@pytest.mark.parametrize("n_dim, n, limit_mib", [(4096, 18, 32), (256, 16, 48)])
def test_damped_sum_memory(cat, n_dim, n, limit_mib):
    # Windows of 2.8e6 and 1.7e6 terms: a sum that held whole-window arrays
    # peaked at 155 and 101 MB.  The blocked walk holds one block plus the
    # live terms (12% and 49% of the window).
    t_map, obs, _, pt, m_time = _live_case(cat, n_dim, n, 0.4137)
    tracemalloc.start()
    try:
        damped_birkhoff_sum(t_map, obs, pt, m_time)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2 ** 20


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
    t = sd.tan_theta
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
    t = sd.tan_theta
    n_dim, n = 64, 4
    h = 1.0 / n_dim
    big_a, big_b = 3.262, 2.771  # an arbitrary plane lift
    state = make_damped_lagrangian(cat, n, h, center=(big_a, big_b))
    q0, p0 = 0.31, 0.87
    idx = BandIndexer(theta=sd.theta, q0=q0, p0=p0, s_prime=state.s_prime)
    s0 = p0 - t * q0
    c_h = (2.0 / h) ** 0.25
    lam_c = 1.0 - 1j * t + state.beta * state.damping_scale
    beta_n = state.beta * state.damping_scale
    p_cplx = 1.0 / lam_c
    alpha_n = p_cplx - math.cos(sd.theta) ** 2 * (1.0 + 1j * t)
    form = lagrangian_overlap_field(state)
    for m in (-9, -2, 0, 1, 7, 13):
        k = idx.p_of(m)
        q, p = q0 + m, p0 + k
        direct = cis_turns(-k * q0 * n_dim) * form.terms(q, p)
        d = idx.d_of(m)
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
    # Damping truncation: widening the window beyond |chi| < 1e-14 is invisible.
    n = 4
    obs = InterferenceObservable(q0=0.3, p0=0.7, theta=sd.theta, h=h,
                                 beta=damping_coefficient(cat))
    chi = gaussian_damping(obs)
    t_map = SkewMap(alpha=sd.tan_theta, N=64)
    base = damped_birkhoff_sum(t_map, obs, (0.2, 0.0), sd.lam ** n)
    k_wide = int(6 * sd.lam ** n)
    ks = np.arange(-k_wide, k_wide + 1)
    xs = 0.2 + ks * sd.tan_theta
    ys = (ks * ks * 32 * sd.tan_theta + ks * 64 * 0.2) % 1.0
    wide = complex(np.sum(np.asarray(chi(ks / sd.lam ** n)) * np.asarray(obs.eval(xs, ys))))
    assert abs(base - wide) <= 1e-12 * max(abs(wide), 1.0)


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
    d_fit = fit_theorem_constant(cat)
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
    d_fit = fit_theorem_constant(m, n_ref=n_dim, seed=11)
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


def test_skew_closed_form_twenty_random_starts(cat):
    # Float one-step composition vs the exact-rational closed form at m = 1e4.
    sd = spectral_data(cat)
    t_map = SkewMap(alpha=sd.tan_theta, N=64)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        pt = (float(rng.uniform()), float(rng.uniform()))
        it = pt
        for _ in range(10_000):
            it = skew_apply(t_map, it)
        closed = skew_iterate(t_map, pt, 10_000)
        worst = max(worst, abs(circle_distance(it[0], closed[0])),
                    abs(circle_distance(it[1], closed[1])))
    assert worst < 1e-9
