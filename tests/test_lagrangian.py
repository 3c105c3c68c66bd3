from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import dense_at_box_points, mod_circle_distance, scan_radius
from oracles import band_distance, check_pointwise_approx, lagrangian_eval, tanh_sinh
from qcat import lagrangian
from qcat.classical import Sl2IntMatrix, TorusPoint, ehrenfest_time, spectral_data
from qcat.errors import TruncationOverflowError
from qcat.lagrangian import (
    _band_m_range,
    aligned_propagated_state,
    band_difference,
    band_rows,
    circle_distance,
    damping_coefficient,
    lagrangian_overlap_field,
    make_damped_lagrangian,
    off_band_tail,
    wavepacket_overlap_field,
)
from qcat.metaplectic import cis_turns, gaussian_eval, wavepacket
from qcat.torus import line_tail_bound, shell_tail_bound


def test_circle_distance():
    assert circle_distance(0.9, 0.0) == pytest.approx(-0.1, abs=1e-14)
    assert circle_distance(0.5, 0.0) == 0.5
    assert circle_distance(1.2, 0.1) == pytest.approx(0.1, abs=1e-14)


def test_circle_distance_has_the_bits_of_mod():
    rng = np.random.default_rng(7)
    size = 200_000
    x = np.where(rng.random(size) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-20.0, 15.0, size)
    special = np.array([0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 0.5, -0.5, 1.5, -1.5, -1e-30, 1e-30,
                        np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(-0.5, 0.0),
                        np.nextafter(-0.5, -1.0), np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
                        np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        for s0 in (0.0, -0.0, 0.3, -0.7, 1e-17):
            for xs in (x, special):
                assert np.array_equal(circle_distance(xs, s0).view(np.int64),
                                      mod_circle_distance(xs, s0).view(np.int64)), s0


def test_state_invariants(cat):
    sd = spectral_data(cat)
    for n in (0, 2, 5, 9):
        state = make_damped_lagrangian(cat, n, 1.0 / 64.0)
        assert state.beta.real == pytest.approx(1.0 / math.cos(sd.theta) ** 2, rel=1e-14)
        assert state.beta.real > 0
        # Unit L2 norm from the closed-form constant, verified by quadrature.
        half = 20.0 * math.sqrt(state.h) * sd.lam ** n
        nrm = tanh_sinh(lambda x: np.abs(lagrangian_eval(state, x)) ** 2, -half, half, tol=1e-12)
        assert nrm.real == pytest.approx(1.0, abs=1e-10)


def test_norm_constant_asymptotics(cat):
    # C(h, n) * h^(1/4) * sqrt(lam^n) stays within fixed positive bounds.
    sd = spectral_data(cat)
    vals = []
    for n in range(0, 12):
        state = make_damped_lagrangian(cat, n, 1.0 / 64.0)
        vals.append(state.norm_constant * state.h ** 0.25 * math.sqrt(sd.lam ** n))
    assert min(vals) > 0.5 and max(vals) < 3.0
    assert max(vals) / min(vals) == pytest.approx(1.0, abs=1e-12)  # exactly constant here


def test_lagrangian_eval_examples(cat):
    sd = spectral_data(cat)
    state = make_damped_lagrangian(cat, 3, 1.0 / 64.0)
    assert lagrangian_eval(state, 0.0) == pytest.approx(state.norm_constant)
    xs = np.linspace(-1.0, 1.0, 11)
    mods = np.abs(lagrangian_eval(state, xs))
    want = state.norm_constant * np.exp(
        -math.pi * state.beta.real * xs ** 2 * state.damping_scale / state.h
    )
    assert np.max(np.abs(mods - want)) < 1e-12
    # Large n: the phase converges to the pure Lagrangian phase of the line.
    x = 0.37
    big = make_damped_lagrangian(cat, 40, 1.0 / 64.0)
    pure = cis_turns(math.tan(sd.theta) * x * x / (2.0 * big.h))
    val = lagrangian_eval(big, x) / abs(lagrangian_eval(big, x))
    assert abs(val - pure) < 1e-8


def test_overlap_matches_quadrature_near_line(cat, rng):
    sd = spectral_data(cat)
    t = math.tan(sd.theta)
    checked = 0
    for _ in range(30):
        n_dim = int(rng.choice([16, 64]))
        h = 1.0 / n_dim
        n = int(rng.integers(1, 5))
        a_c = float(rng.uniform(-1.5, 1.5))
        b_c = t * a_c + float(rng.uniform(-0.3, 0.3))
        state = make_damped_lagrangian(cat, n, h, center=(a_c, b_c))
        # Sample where the overlap is O(1)-sized: along the line within the
        # damping width sqrt(h) lam^n, transversally at the sqrt(h) scale.
        q = a_c + math.sqrt(h) * sd.lam ** n * float(rng.uniform(-1.5, 1.5))
        p = t * q + state.s_prime + math.sqrt(h) * float(rng.uniform(-2.0, 2.0))
        closed = lagrangian_overlap_field(state).terms(q, p)
        lo, hi = q - 14.0 * math.sqrt(h), q + 14.0 * math.sqrt(h)
        phi = wavepacket(q, p, h)
        quad = tanh_sinh(
            lambda x: lagrangian_eval(state, x) * np.conj(gaussian_eval(phi, x)),
            lo, hi, tol=1e-12,
        )
        if abs(quad) > 1e-6:
            assert abs(closed - quad) / abs(quad) < 1e-8
            checked += 1
    assert checked >= 25


def test_overlap_modulus_profile(cat):
    # |overlap| tracks exp(-pi cos^2 d^2 / h) along the transverse direction.
    sd = spectral_data(cat)
    h = 1.0 / 64.0
    t = math.tan(sd.theta)
    state = make_damped_lagrangian(cat, 12, h)  # large n: damping negligible locally
    form = lagrangian_overlap_field(state)
    q = 0.2
    c2 = math.cos(sd.theta) ** 2
    base = abs(form.terms(q, t * q))
    for d in (0.05, 0.1, 0.2):
        val = abs(form.terms(q, t * q - d))
        assert val / base == pytest.approx(math.exp(-math.pi * c2 * d * d / h), rel=1e-3)
    # Center large-n limit: |overlap| -> sqrt(h) C(h,n) C_h |Lam|^(-1/2) at d = 0.
    c_h = (2.0 / h) ** 0.25
    lam_c = 1.0 - 1j * t + state.beta * state.damping_scale
    want = math.sqrt(h) * state.norm_constant * c_h / abs(lam_c) ** 0.5
    assert abs(form.terms(0.0, 0.0)) == pytest.approx(want, rel=1e-12)
    # Far point: negligible against the analytic bound.
    far = abs(form.terms(0.0, t * 0.0 + 0.5))
    assert far < math.exp(-math.pi * c2 * 0.25 * 64.0) * 10.0


def test_band_rows(cat):
    sd = spectral_data(cat)
    # A state rooted at (0, 0) has s' = 0.
    state, origin = make_damped_lagrangian(cat, 3, 1.0 / 64), TorusPoint(0.0, 0.0)
    assert state.s_prime == 0.0
    assert band_rows(state, origin, 0) == 0
    assert band_rows(state, origin, 1) == 1
    assert band_rows(state, origin, 2) == 1
    ms = np.arange(-100, 101)
    d = band_distance(state, origin, ms)
    assert np.all(d > -0.5) and np.all(d <= 0.5)
    # d agrees with the signed circle distance of the rotation orbit.
    t = math.tan(sd.theta)
    for m in (-7, 3, 41):
        assert band_distance(state, origin, m) == pytest.approx(circle_distance(m * t, 0.0), abs=1e-12)


def test_off_band_tail(cat):
    sd = spectral_data(cat)
    n_dim = 64
    h = 1.0 / n_dim
    n = math.ceil(ehrenfest_time(h, sd.lam))
    # Both states are rooted at (0, 0), so s' = 0 for each.
    target = TorusPoint(0.3, 0.7)
    state = make_damped_lagrangian(cat, n, h)
    assert off_band_tail(lagrangian_overlap_field(state), state, target) < 1e-8
    g, _ = aligned_propagated_state(cat, n, h)
    assert off_band_tail(wavepacket_overlap_field(g), state, target) < 1e-8
    # Limit of a state overwhelmingly concentrated on the line: every
    # off-band cell underflows to an exact floating-point zero.
    tight = make_damped_lagrangian(cat, 1, 1.0 / 2048.0)
    assert off_band_tail(lagrangian_overlap_field(tight), tight, target) == 0.0


def _dense_field_values(form, q, p):
    """Oracle: pref * exp(E(q, p)) with the phase of every value reduced,
    underflowed or not."""
    e_qq, e_pp, e_qp, e_q, e_p, e_c = form.coeffs
    e = e_qq * q * q + e_pp * p * p + e_qp * q * p + e_q * q + e_p * p + e_c
    return form.pref * np.exp(e.real) * cis_turns(e.imag / (2.0 * math.pi))


def _scan_off_band_radius(form):
    """Oracle: the off-band radius found by stepping (:func:`scan_radius`) to
    peak * shell_tail_bound(r, mu) <= 1e-16 * peak."""
    _, mu, peak = form.envelope()
    return scan_radius(peak, mu, 1e-16 * max(peak, 1e-300), shell_tail_bound)


def _dense_off_band_tail(form, state, target, radius):
    """Oracle: |off-band sum| on the box of ``radius`` from dense values."""
    center = form.envelope()[0]
    k1 = np.arange(round(center[0] - target.q) - radius, round(center[0] - target.q) + radius + 1)
    k2 = np.arange(round(center[1] - target.p) - radius, round(center[1] - target.p) + radius + 1)
    kk1, kk2 = np.meshgrid(k1, k2, indexing="ij")
    vals = _dense_field_values(form, target.q + kk1, target.p + kk2)
    return float(abs(np.sum(vals[kk2 != band_rows(state, target, kk1)]))), vals, (kk1, kk2)


def _off_band_cases(m, cells=((64, 3), (1024, 6), (1024, 8), (4096, 8))):
    """(form, state) for a Lagrangian state and a propagated packet of
    ``m`` at each (N, n) of ``cells``; each form is banded along the line of
    its own state, so the packet's band is that of the Lagrangian state
    centered on the packet's center."""
    for n_dim, n in cells:
        h = 1.0 / n_dim
        lag = make_damped_lagrangian(m, n, h)
        g, _ = aligned_propagated_state(m, n, h)
        yield lagrangian_overlap_field(lag), lag
        yield wavepacket_overlap_field(g), make_damped_lagrangian(m, n, h, center=(g.q, g.p))


_TARGET = TorusPoint(0.3, 0.7)


def test_off_band_tail_matches_dense_oracle(cat):
    # Bit-equal tails and box values, for the cat map and two nonsymmetric
    # matrices (at n <= 6 past N = 64, where their boxes stay under the cap).
    # box() returns every nonzero value of the dense box, with its bits, and
    # past t_E under 1% of the box.  The tail sums them in the order of the
    # points: bit-equal to the dense cat-map tails, and within the rounding
    # of the sum for the other two.
    eps = np.finfo(float).eps
    cells = ((64, 3), (1024, 6), (4096, 6))
    cases = [(True, case) for case in _off_band_cases(cat)] + [
        (False, case) for m in (Sl2IntMatrix(3, 1, 2, 1), Sl2IntMatrix(2, 3, 1, 2))
        for case in _off_band_cases(m, cells)
    ]
    shares = []
    target = _TARGET
    for same_bits, (form, state) in cases:
        radius = _scan_off_band_radius(form)
        want, dense, (kk1, kk2) = _dense_off_band_tail(form, state, target, radius)
        tail = off_band_tail(form, state, target)
        if same_bits:
            assert tail == want
        vals = form.terms(target.q + kk1, target.p + kk2)
        assert np.array_equal(vals, dense)
        k1, k2, _ = form.box(target.q, target.p, 1e-16 * max(form.envelope()[2], 1e-300),
                             (2 * radius + 1) ** 2)
        at_points = form.terms(target.q + k1, target.p + k2)
        assert np.array_equal(at_points, dense_at_box_points(dense, (kk1[0, 0], kk2[0, 0]), k1, k2))
        off = at_points[k2 != band_rows(state, target, k1)]
        assert tail == float(abs(np.sum(off)))
        assert abs(tail - want) <= 4.0 * eps * np.sum(np.abs(off))
        shares.append(k1.size / dense.size)
    # The saving, pinned by a count.
    assert min(shares) < 0.01 < max(shares)

    # A box far from the ridge: every value underflows to an exact zero.
    state = make_damped_lagrangian(cat, 8, 1.0 / 1024.0)
    form = lagrangian_overlap_field(state)
    q = 0.3 + np.arange(-50, 51)[:, None]
    p = 200.7 + np.arange(-50, 51)[None, :]
    far = form.terms(q, p)
    assert not np.any(far) and np.array_equal(far, _dense_field_values(form, q, p))

    # Scalar input gives a numpy scalar, bit-equal to the dense value at the
    # same point in a one-element array (numpy's complex product, which can
    # differ from Python's in the last bit), and zero where it underflows.
    for q, p in ((0.3, 0.7), (0.3, 1.7), (0.3, 40.7)):
        got = form.terms(q, p)
        want = _dense_field_values(form, np.array([q]), np.array([p]))[0]
        assert np.ndim(got) == 0 and got == want
        assert lagrangian_overlap_field(state).terms(q, p) == complex(want)
        assert abs(got - _dense_field_values(form, q, p)) <= 4e-16 * abs(got)
    assert form.terms(0.3, 40.7) == 0.0


def test_off_band_radius_matches_scan(cat, monkeypatch):
    # The certified radius r is read off the term cap: a cap of (2r+1)^2
    # terms is enough, and one term less caps the radius at r - 1.
    for form, state in _off_band_cases(cat):
        radius = _scan_off_band_radius(form)
        box = (2 * radius + 1) ** 2
        monkeypatch.setattr(lagrangian, "_MAX_BAND_TERMS", box)
        off_band_tail(form, state, _TARGET)
        monkeypatch.setattr(lagrangian, "_MAX_BAND_TERMS", box - 1)
        with pytest.raises(TruncationOverflowError,
                           match=f"^certified radius {radius} is above the cap {radius - 1}$"):
            off_band_tail(form, state, _TARGET)


def test_band_window_matches_line_scan_and_is_sound(cat):
    # The band window is the smallest radius the line tail bound certifies,
    # and the dense |values| along the band outside it sum to at most the
    # target, for a Lagrangian state and a propagated packet at N = 64, 1024.
    nonempty = 0
    target = _TARGET
    # The band of a Lagrangian state rooted at (0, 0), whose s' is 0.
    state = make_damped_lagrangian(cat, 3, 1.0 / 64)
    for form, _ in _off_band_cases(cat, ((64, 3), (1024, 8))):
        for tail, scale in ((1e-14, 1.0), (1e-8, 1.0), (1e-6, 1e-3), (1e-2, 1.0)):
            m_lo, m_hi = _band_m_range(form, target, tail * scale)
            center, mu, peak = form.envelope()
            radius = scan_radius(peak, mu, tail * scale, line_tail_bound)
            mid = center[0] - target.q
            assert (m_lo, m_hi) == (math.floor(mid - radius), math.ceil(mid + radius))
            # Wide enough that every value past it underflows to zero.
            pad = 10 * max(m_hi - m_lo, 100)
            m = np.arange(min(m_lo, 0) - pad, max(m_hi, 0) + pad + 1)
            vals = np.abs(_dense_field_values(form, target.q + m, target.p + band_rows(state, target, m)))
            assert vals[0] == 0.0 and vals[-1] == 0.0
            outside = (m < m_lo) | (m > m_hi)
            assert np.sum(vals[outside]) <= tail * scale
            nonempty += m_hi >= m_lo and np.sum(vals[outside]) > 0.0
    assert nonempty > 0


def test_make_damped_lagrangian_carries_matrix_beta():
    # A nonsymmetric matrix gets its own beta, not the symmetric 1/cos^2.
    m = Sl2IntMatrix(3, 1, 2, 1)
    state = make_damped_lagrangian(m, 4, 1.0 / 64.0)
    assert state.beta == damping_coefficient(m)
    assert abs(state.beta - 1.0 / math.cos(state.theta) ** 2) > 1e-3


def test_off_band_tail_superpolynomial_decay(cat):
    sd = spectral_data(cat)
    tails = []
    for n_dim in (16, 32, 64, 128):
        h = 1.0 / n_dim
        n = math.ceil(ehrenfest_time(h, sd.lam))
        state = make_damped_lagrangian(cat, n, h)
        tails.append(max(off_band_tail(lagrangian_overlap_field(state), state, _TARGET), 1e-300))
    slopes = [math.log(tails[i] / tails[i + 1]) / math.log(2.0) for i in range(3)]
    assert slopes[0] < slopes[1] < slopes[2]  # accelerating decay: faster than any power


def test_band_difference(cat):
    sd = spectral_data(cat)
    # Both states are rooted at (0, 0), so both follow the band of the
    # Lagrangian state, whose s' is 0.
    # Shrinks with N at fixed Ehrenfest multiple.
    diffs = []
    for n_dim in (16, 64, 256):
        h = 1.0 / n_dim
        n = 2 * math.ceil(ehrenfest_time(h, sd.lam))
        g, _ = aligned_propagated_state(cat, n, h)
        state = make_damped_lagrangian(cat, n, h)
        form_l = lagrangian_overlap_field(state)
        diffs.append(band_difference(form_l, wavepacket_overlap_field(g), state, _TARGET))
    assert diffs[0] > diffs[1] > diffs[2]


def test_check_pointwise_approx(cat):
    grid = np.linspace(-2.0, 2.0, 401)
    report = check_pointwise_approx(cat, 3, 1.0 / 64.0, grid)
    assert report.violations == 0
    assert report.fitted_r > 0
    # x = 0: both sides vanish after the shared-constant alignment.
    g, _ = aligned_propagated_state(cat, 3, 1.0 / 64.0)
    lag = make_damped_lagrangian(cat, 3, 1.0 / 64.0)
    scale = abs(g.amplitude) / lag.norm_constant
    assert abs(gaussian_eval(g, 0.0) - scale * lagrangian_eval(lag, 0.0)) < 1e-14


def test_band_sum_constant_c23(cat):
    # Normalized band sum minus the windowed interference sum stays bounded by
    # one constant across h in {1/16, 1/64, 1/256}, n >= log(1/h)/log(lam).
    sd = spectral_data(cat)
    t = math.tan(sd.theta)
    c_ratio = []
    for n_dim in (16, 64, 256):
        h = 1.0 / n_dim
        n = math.ceil(abs(math.log(h)) / math.log(sd.lam))
        state = make_damped_lagrangian(cat, n, h)
        q0, p0 = 0.3, 0.7
        target = TorusPoint(q0, p0)
        c_h = (2.0 / h) ** 0.25
        norm = math.sqrt(h) * c_h * state.norm_constant
        # The band sum with the quantum-translation phase e(-p(m) q0 N) of
        # the T-translated test packet, over the certified band window.
        form = lagrangian_overlap_field(state)
        m_lo, m_hi = _band_m_range(form, target, 1e-14)
        m = np.arange(m_lo, m_hi + 1)
        k = band_rows(state, target, m)
        phased = form.terms(q0 + m, p0 + k) * cis_turns(-k * (n_dim * q0))
        total = complex(np.sum(phased)) / norm
        # Windowed model: damping x profile x skew phases, at s' = 0.
        lam_c = 1.0 - 1j * t + state.beta * state.damping_scale
        ms = np.arange(-int(6 * math.sqrt(h) * sd.lam ** n) - 8,
                       int(6 * math.sqrt(h) * sd.lam ** n) + 9)
        d = band_distance(state, target, ms)
        c2 = math.cos(sd.theta) ** 2
        model = np.sum(
            np.exp(-state.beta.real * math.pi * (ms - q0) ** 2 * state.damping_scale / h)
            * np.exp(-math.pi * c2 * (1 + 1j * t) * d * d / h)
            * cis_turns(q0 * d * n_dim)
            * cis_turns(t * ms * ms * n_dim / 2.0)
        ) / np.sqrt(lam_c) * cis_turns(t * q0 * q0 * n_dim / 2.0) * cis_turns(
            n_dim * q0 * (p0 - t * q0)
        )
        c_ratio.append(abs(total - model))
    # One constant: later values must not blow up relative to the first.
    assert max(c_ratio) <= 5.0 * max(c_ratio[0], 0.05)


def test_damping_replacement_l1_bounded(cat):
    # sum_m |exact transverse factor - translated Gaussian window| is bounded
    # uniformly in (n, h): the replacement-error argument behind the damping.
    sd = spectral_data(cat)
    t = math.tan(sd.theta)
    sums = []
    for n_dim in (16, 64, 256):
        h = 1.0 / n_dim
        n = math.ceil(abs(math.log(h)) / math.log(sd.lam))
        state = make_damped_lagrangian(cat, n, h)
        q0, p0 = 0.3, 0.7
        target = TorusPoint(q0, p0)
        form = lagrangian_overlap_field(state)
        ms = np.arange(-int(8 * math.sqrt(h) * sd.lam ** n) - 8,
                       int(8 * math.sqrt(h) * sd.lam ** n) + 9)
        qs = q0 + ms
        ps = p0 + np.asarray(band_rows(state, target, ms), dtype=float)
        e_qq, e_pp, e_qp, e_q, e_p, e_c = form.coeffs
        expo = e_qq * qs * qs + e_pp * ps * ps + e_qp * qs * ps + e_q * qs + e_p * ps + e_c
        c2 = math.cos(sd.theta) ** 2
        d = band_distance(state, target, ms)
        # Exact transverse remainder after dividing out the F0 profile.
        exact = np.exp(expo.real + math.pi * c2 * d * d / h)
        window = np.exp(-state.beta.real * math.pi * (ms - q0) ** 2 * state.damping_scale / h)
        sums.append(float(np.sum(np.abs(exact - window))))
    assert max(sums) <= 5.0 * max(sums[0], 0.5)


def test_damping_coefficient_general(cat):
    # Symmetric matrices: beta collapses to the real value 1/cos^2(theta).
    for m in (cat, Sl2IntMatrix(5, 3, 3, 2), cat.power(3)):
        sd = spectral_data(m)
        beta = damping_coefficient(m)
        assert beta.imag == pytest.approx(0.0, abs=1e-12)
        assert beta.real == pytest.approx(1.0 / math.cos(sd.theta) ** 2, rel=1e-12)
    # Nonsymmetric: matches the exact shape recursion lim lam^(2n)(theta_n - tan).
    m = Sl2IntMatrix(3, 2, 1, 1)
    sd = spectral_data(m)
    beta = damping_coefficient(m)
    assert beta.real > 0
    mn = m.power(8)
    th_n = (mn.c + 1j * mn.d) / (mn.a + 1j * mn.b)
    dev = (th_n - math.tan(sd.theta)) * sd.lam ** 16
    assert abs(dev - 1j * beta) < 1e-6


def test_pointwise_approx_nonsymmetric_matrix():
    # The fitted R_n decay law holds for a nonsymmetric trace > 2 matrix too,
    # which discriminates the general damping coefficient from the symmetric
    # one (the latter would flatten the slope to -2 log lam).
    m = Sl2IntMatrix(3, 2, 1, 1)
    sd = spectral_data(m)
    grid = np.linspace(-2.0, 2.0, 401)
    logs = []
    for n in range(2, 7):
        rep = check_pointwise_approx(m, n, 1.0 / 64.0, grid)
        assert rep.violations == 0
        logs.append(math.log(rep.fitted_r))
    slope = float(np.polyfit(range(2, 7), logs, 1)[0])
    target = -4.0 * math.log(sd.lam)
    assert abs(slope - target) < 0.1 * abs(target)
