from __future__ import annotations

import itertools
import math
import re
import time

import numpy as np
import pytest

import qcat.torus
from conftest import (TracedPeak, comb_propagator_matrix, comb_state, dense_at_box_points,
                      dense_comb_gram_min_eig, scan_radius)
from oracles import (PlaneTranslation, TorusState, gaussian_overlap, lagrangian_eval, overlap_quadrature,
                     pair_from_coefficients, pinned_propagator_matrix, torus_coefficients, translate)
from qcat.classical import Sl2IntMatrix, TorusPoint, ehrenfest_time, spectral_data
from qcat.errors import (
    MismatchedHError,
    NonHyperbolicError,
    NumericalToleranceError,
    OddNError,
    TruncationOverflowError,
)
from qcat.harness import ExperimentConfig, run_unitarity
from qcat.lagrangian import (
    aligned_propagated_state,
    band_rows,
    lagrangian_overlap_field,
    make_damped_lagrangian,
)
from qcat.metaplectic import GaussianState, cis_turns, gaussian_eval, propagate_n, wavepacket
from qcat.torus import (
    _shear_chain,
    build_propagator_matrix,
    certified_radius,
    husimi,
    line_tail_bound,
    matrix_element_exact,
    overlap_form,
    pair_symmetrized_detailed,
    periodized_samples,
    shell_tail_bound,
)


def test_pair_diagonal_real_positive():
    g = wavepacket(0.0, 0.0, 1.0 / 8.0)
    val = pair_symmetrized_detailed(g, g)[0]
    assert val.imag == pytest.approx(0.0, abs=1e-13)
    assert val.real > 0


def test_pair_invariance_under_integer_translation():
    h = 1.0 / 8.0
    g = wavepacket(0.3, 0.6, h)
    test = wavepacket(0.1, 0.9, h)
    base = pair_symmetrized_detailed(g, test)[0]
    shifted = pair_symmetrized_detailed(translate(g, PlaneTranslation(1.0, 0.0)), test)[0]
    assert abs(abs(shifted) - abs(base)) < 1e-12
    # Plain recentering of the test packet also preserves the modulus.
    moved = pair_symmetrized_detailed(g, wavepacket(0.1 + 1.0, 0.9, h))[0]
    assert abs(abs(moved) - abs(base)) < 1e-12


def test_pair_against_bruteforce_quadrature():
    # N = 2: compare with a K = 6 lattice sum of quadrature overlaps.
    h = 0.5
    g = wavepacket(0.0, 0.0, h)
    brute = 0.0 + 0.0j
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            brute += overlap_quadrature(translate(g, PlaneTranslation(k1, k2)), g)
    val, trunc = pair_symmetrized_detailed(g, g)
    assert abs(val - brute) < 1e-10
    assert trunc.certified_tail < 1e-13


def test_pair_validation_errors(monkeypatch):
    with pytest.raises(MismatchedHError):
        pair_symmetrized_detailed(wavepacket(0, 0, 0.5), wavepacket(0, 0, 0.25))
    with pytest.raises(OddNError):
        pair_symmetrized_detailed(wavepacket(0, 0, 1.0 / 3.0), wavepacket(0, 0, 1.0 / 3.0))
    monkeypatch.setattr(qcat.torus, "_MAX_TERMS", 4)
    with pytest.raises(TruncationOverflowError):
        pair_symmetrized_detailed(wavepacket(0, 0, 1.0 / 64.0), wavepacket(0, 0, 1.0 / 64.0))


def test_overlap_form_refuses_a_propagated_test(cat):
    # The expanded form is sound only for a plain packet on the test side.
    h = 1.0 / 16.0
    g = propagate_n(cat, wavepacket(0.3, 0.4, h), 1)
    with pytest.raises(ValueError, match="plain wavepacket"):
        overlap_form(g, g)
    with pytest.raises(ValueError, match="plain wavepacket"):
        pair_symmetrized_detailed(wavepacket(0.3, 0.4, h), propagate_n(cat, wavepacket(0.1, 0.2, h), 8))
    with pytest.raises(ValueError, match="plain wavepacket"):
        pair_symmetrized_detailed(g, comb_state(16, 3))
    overlap_form(g, wavepacket(0.1, 0.2, h))


def _scan_certified_radius(g, test, tail_target=1e-13):
    """Oracle: the radius of the pairing's box, by stepping (:func:`scan_radius`)."""
    _, mu, peak = overlap_form(g, test).envelope()
    return scan_radius(peak, mu, tail_target * max(g.norm * test.norm, 1e-300), shell_tail_bound)


def test_certified_radius_matches_scan(cat):
    src, dst = TorusPoint(0.3, 0.7), TorusPoint(0.2, 0.9)
    for n_dim, n in ((2, 0), (16, 0), (64, 0), (16, 3), (64, 5), (256, 6), (1024, 8)):
        h = 1.0 / n_dim
        g = propagate_n(cat, wavepacket(src.q, src.p, h), n)
        test = wavepacket(dst.q, dst.p, h)
        _, trunc = pair_symmetrized_detailed(g, test)
        assert trunc.radius == _scan_certified_radius(g, test), (n_dim, n)

    # Past the term cap the same radius is reported, without stepping up to
    # it, with the largest radius under the cap: (2 * 1117 + 1)^2 <= 5e6.
    h = 1.0 / 1024
    g = propagate_n(cat, wavepacket(src.q, src.p, h), 16)
    radius = _scan_certified_radius(g, wavepacket(dst.q, dst.p, h))
    assert (2 * radius + 1) ** 2 > 5_000_000
    start = time.perf_counter()
    with pytest.raises(TruncationOverflowError) as err:
        matrix_element_exact(cat, 16, src, dst, 1024)
    assert time.perf_counter() - start < 0.25
    assert str(err.value) == f"certified radius {radius} is above the cap 1117"


# (peak, mu, target) of each truncated sum at one cell of its range: the
# lattice box (cat N = 256, n = 6), the band window (1024, 8), the Birkhoff
# window (256, 12), the periodized samples at (144, 6) and (256, 11), and the
# Husimi window at N = 16 and 4096.
_CALLER_WINDOWS = [(0.0788, 0.0155, 1e-13), (0.0301, 1.32e-3, 1e-14), (1.0, 2.07e-7, 1e-14),
                   (0.249, 0.0121, 2.49e-17), (0.0259, 1.42e-6, 2.59e-18),
                   (1.0, math.pi / 8, math.exp(-40.0)), (1.0, math.pi / 2048, math.exp(-40.0))]


@pytest.mark.parametrize("tail_bound", [shell_tail_bound, line_tail_bound], ids=["shell", "line"])
def test_certified_radius_is_the_first_certified_step(tail_bound):
    # The radius found by stepping, at each caller's values and on a grid
    # around them (radii 1 to about 2e4).  A cap of that radius passes, and
    # one less is refused with both named.
    grid = itertools.product((1e-4, 1.0, 1e4), (1e-5, 0.1, 100.0), (1e-16, 1e-8))
    for peak, mu, target in [*_CALLER_WINDOWS, *grid]:
        radius = scan_radius(peak, mu, target, tail_bound)
        assert certified_radius(peak, mu, target, tail_bound, radius) == radius
        with pytest.raises(TruncationOverflowError,
                           match=f"^certified radius {radius} is above the cap {radius - 1}$"):
            certified_radius(peak, mu, target, tail_bound, radius - 1)


@pytest.mark.parametrize("mu, reason", [(0.0, "is not positive"), (-0.5, "is not positive"),
                                        (math.nan, "is not positive"),
                                        (5e-324, "underflows: 0.5 * mu is 0")],
                         ids=["zero", "negative", "nan", "subnormal"])
def test_certified_radius_refuses_a_curvature_that_is_not_positive(mu, reason):
    # Both bounds divide by zero at mu = 0, and a NaN mu would certify
    # radius 1, since every comparison with NaN is false.  At the smallest
    # subnormal 0.5 * mu is 0, so neither bound falls and the doubling would
    # run past the float range.
    for tail_bound in (shell_tail_bound, line_tail_bound):
        with pytest.raises(TruncationOverflowError,
                           match="^" + re.escape(f"window curvature {mu} {reason}") + "$"):
            certified_radius(1.0, mu, 1e-14, tail_bound, 10 ** 9)


@pytest.mark.parametrize("n_dim, n", [(144, 6), (256, 11)])
def test_sample_window_certificate(cat, monkeypatch, n_dim, n):
    # The periods formed are the 2K + 1 around floor(q), K certified and K - 1
    # not.  The images left out of each sample sum to at most 1e-16 |A|,
    # counted out to 3K periods on each side (below e^-300 of the peak).
    g = propagate_n(cat, wavepacket(0.3, 0.4, 1.0 / n_dim), n)
    periods = []

    def recorded(state, x):
        periods.append(x[:, 0])  # the column r = 0 of x = r/N + m is m itself
        return gaussian_eval(state, x)

    monkeypatch.setattr(qcat.torus, "gaussian_eval", recorded)
    periodized_samples(g)
    m = np.concatenate(periods)
    half = (m.size - 1) // 2
    assert np.array_equal(m, math.floor(g.q) + np.arange(-half, half + 1))
    mu = 2.0 * math.pi * complex(g.theta).imag / g.h  # |g(x)| = |A| exp(-mu (x - q)^2 / 2)
    assert line_tail_bound(half, mu) <= 1e-16 < line_tail_bound(half - 1, mu)
    assert mu / 2.0 * (3 * half - 1) ** 2 > 300.0
    out = np.concatenate((m[0] - np.arange(1, 2 * half + 1), m[-1] + np.arange(1, 2 * half + 1)))
    dropped = [np.sum(np.exp(-mu / 2.0 * (r + out - g.q) ** 2)) for r in np.arange(n_dim) / n_dim]
    assert 0.0 < max(dropped) <= 1e-16


@pytest.mark.parametrize("n_dim", [16, 144, 4096])
def test_husimi_window_certificate(monkeypatch, n_dim):
    # K certified and K - 1 not; the weights exp(-pi (l - c)^2 / N) left out
    # of each frame row sum to at most e^-40, counted out to where they underflow.
    radii = []

    def recorded(*args):
        radii.append(certified_radius(*args))
        return radii[-1]

    monkeypatch.setattr(qcat.torus, "certified_radius", recorded)
    husimi(wavepacket(0.3, 0.4, 1.0 / n_dim), 24)
    half, mu = radii[0], 2.0 * math.pi / n_dim  # the frame's window comes before the samples'
    assert line_tail_bound(half, mu) <= math.exp(-40.0) < line_tail_bound(half - 1, mu)
    for center in n_dim * np.arange(24) / 24:
        d = np.arange(math.floor(center) - 5 * half, math.ceil(center) + 5 * half + 1) - center
        weights = np.exp(-math.pi * d * d / n_dim)
        assert weights[0] == weights[-1] == 0.0
        assert np.sum(weights[np.abs(d) > half]) <= math.exp(-40.0)


def _dense_pairing_box(g, test, radius, offset=(0, 0)):
    """Oracle: the lattice terms of the pairing on the box of ``radius``
    around the decay center (moved by ``offset``), every term through the
    complex exponent and both cis_turns calls, underflowed or not.  The
    translation phase is named before it is scaled: numpy would reuse a
    large temporary in place and swap the operands of the complex product,
    which can move its last bit.

    Returns the dense terms, the form and the inputs of its ``terms``, and
    the (k1, k2) of the box corner.
    """
    n_dim = round(1.0 / g.h)
    form = overlap_form(g, test)
    center = form.envelope()[0]
    c1 = round(center[0] - g.q) + offset[0]
    c2 = round(center[1] - g.p) + offset[1]
    k1 = np.arange(c1 - radius, c1 + radius + 1)
    k2 = np.arange(c2 - radius, c2 + radius + 1)
    kk1, kk2 = np.meshgrid(k1, k2, indexing="ij")
    y = g.q + kk1
    w = g.p + kk2
    e_yy, e_ww, e_yw, e_y, e_w, e_c = form.coeffs
    expo = e_yy * y * y + e_ww * w * w + e_yw * y * w + e_y * y + e_w * w + e_c
    turns = kk2 * (n_dim * g.q)
    shift = cis_turns(turns)
    dense = form.pref * shift * np.exp(expo.real) * cis_turns(expo.imag / (2.0 * math.pi))
    return dense, (form, y, w, turns), (k1[0], k2[0])


def test_live_terms_match_dense_oracle(cat):
    # Per matrix, (N, n): every box point live (N = 2, n = 0); a mixed box at
    # N = 64; and the N = 1024 pairing past t_E (n = 8 for the cat map, n = 6
    # for the faster-expanding nonsymmetric matrices).  box() returns every
    # nonzero term, each with the dense bits; its sum runs in the order of
    # the points, so it moves off the whole-box sum only in the last bits.
    src, dst = TorusPoint(0.3, 0.7), TorusPoint(0.2, 0.9)
    eps = np.finfo(float).eps
    for m, cells in ((cat, ((2, 0), (64, 5), (1024, 8))),
                     (Sl2IntMatrix(3, 1, 2, 1), ((2, 0), (64, 3), (1024, 6))),
                     (Sl2IntMatrix(2, 3, 1, 2), ((2, 0), (64, 3), (1024, 6)))):
        share = {}
        for n_dim, n in cells:
            h = 1.0 / n_dim
            g = propagate_n(m, wavepacket(src.q, src.p, h), n)
            test = wavepacket(dst.q, dst.p, h)
            value, trunc = pair_symmetrized_detailed(g, test)
            dense, (form, y, w, turns), corner = _dense_pairing_box(g, test, trunc.radius)
            assert np.array_equal(form.terms(y, w, turns=turns), dense), (m, n_dim, n)
            k1, k2, box_trunc = form.box(g.q, g.p, 1e-13 * g.norm * test.norm, 5_000_000)
            assert box_trunc == trunc
            want = dense_at_box_points(dense, corner, k1, k2)
            terms = form.terms(g.q + k1, g.p + k2, turns=k2 * (n_dim * g.q))
            assert np.array_equal(terms, want), (m, n_dim, n)
            assert value == complex(np.sum(want)), (m, n_dim, n)
            assert abs(value - np.sum(dense)) <= 4.0 * eps * np.sum(np.abs(dense)), (m, n_dim, n)
            share[n_dim] = k1.size / dense.size

            # The box moved 400 cells off the ridge: every row interval is
            # empty, and every dense term there is an exact zero.
            far, _, corner = _dense_pairing_box(g, test, trunc.radius, (400, -400))
            rows = corner[0] + np.arange(far.shape[0])
            lo, hi = form._row_columns(g.q + rows, g.p, corner[1], corner[1] + far.shape[1] - 1)
            assert np.all(hi < lo) and not np.any(far), (m, n_dim, n)
        # The saving, pinned by a count: every point of the N = 2 box comes
        # back, and under 1% of the box past t_E.
        assert share[2] == 1.0 and share[1024] < 0.01, (m, share)

    # A 0-d center pair gives a numpy scalar, bit-equal to the dense value.
    # The oracle multiplies one-element arrays in the operand order of
    # terms(): numpy's array complex product may be fused (FMA), while
    # Python's and numpy scalars' are not, so only the same array products
    # promise the same bits.
    h = 1.0 / 64
    g = propagate_n(cat, wavepacket(src.q, src.p, h), 5)
    form = overlap_form(g, wavepacket(dst.q, dst.p, h))
    e_yy, e_ww, e_yw, e_y, e_w, e_c = form.coeffs
    y, w = g.q + 0.25, g.p - 0.5
    expo = e_yy * y * y + e_ww * w * w + e_yw * y * w + e_y * y + e_w * w + e_c
    pref = form.pref * cis_turns(np.array([0.3]))
    want = pref * np.exp(np.array([expo.real])) * cis_turns(np.array([expo.imag / (2.0 * math.pi)]))
    got = form.terms(y, w, turns=0.3)
    assert np.ndim(got) == 0 and got == want[0]

    # A term's bits do not depend on how many terms one call evaluates, even
    # past the 16384 live terms where numpy starts to reuse temporaries.
    form = qcat.torus.OverlapForm(
        (-1e-5 + 3.1j, -1e-5 - 2.7j, 5e-6 + 1.3j, 0.01 + 0.2j, 0.02 - 0.3j, 0.1 + 0.05j), 0.3 + 0.7j)
    k = np.arange(-20000, 20000)
    y, w, turns = 0.3 + 0.37 * k, 0.7 - 0.11 * k, 1234.567 * k
    whole = form.terms(y, w, turns=turns)
    assert np.count_nonzero(whole) == k.size
    parts = [form.terms(y[i:i + 1000], w[i:i + 1000], turns=turns[i:i + 1000])
             for i in range(0, k.size, 1000)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_torus_coefficients_properties():
    # Centered real packet at N = 2: real coefficients.
    ts = torus_coefficients(wavepacket(0.0, 0.0, 0.5))
    assert np.max(np.abs(ts.coeffs.imag)) < 1e-14
    # Linearity in the amplitude.
    g = wavepacket(0.3, 0.1, 0.25)
    scaled = GaussianState(g.amplitude * (0.7 - 0.3j), g.theta, g.q, g.p, g.h)
    assert np.allclose(
        torus_coefficients(scaled).coeffs, (0.7 - 0.3j) * torus_coefficients(g).coeffs
    )


def test_torus_state_validates():
    # The oracle's record is immutable and checks N and the shape of its
    # coefficients, and the Parseval pairing refuses states on different tori.
    with pytest.raises(OddNError):
        TorusState(N=3, coeffs=np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        TorusState(N=4, coeffs=np.zeros(3, dtype=complex))
    with pytest.raises(OddNError):
        pair_from_coefficients(torus_coefficients(wavepacket(0.0, 0.0, 0.5)),
                               torus_coefficients(wavepacket(0.0, 0.0, 0.25)))
    ts = torus_coefficients(wavepacket(0.3, 0.4, 1.0 / 16))
    with pytest.raises(AttributeError):
        ts.N = 8
    with pytest.raises(AttributeError):
        ts.extra = None


def test_parseval_route_matches_lattice_route():
    for n_dim in (2, 8, 16):
        h = 1.0 / n_dim
        ga = wavepacket(0.23, 0.71, h)
        gb = wavepacket(0.6, 0.1, h)
        lat = pair_symmetrized_detailed(ga, gb)[0]
        par = pair_from_coefficients(torus_coefficients(ga), torus_coefficients(gb))
        assert abs(lat - par) < 1e-9


def test_husimi_fft_route_matches_lattice_route(cat):
    # The FFT frame against N |<S(g), S(Phi_{i/R, j/R})>|^2 from the lattice
    # route, at a few cells per frame.  R = 24 does not divide N = 64 and
    # R = 64 exceeds N = 16, so the fold by l mod R wraps both ways.
    sd = spectral_data(cat)
    for n_dim, res in ((16, 64), (64, 24), (144, 64)):
        h = 1.0 / n_dim
        late = math.ceil(1.5 * ehrenfest_time(h, sd.lam))
        for n in (0, 2, late):
            # Both routes lose digits as the packet spreads.  At n = late a
            # 40-digit evaluation puts the lattice route 8e-13 (N = 64) and the
            # periodized samples behind the FFT route 1.3e-12 (N = 144) off,
            # in units of the frame maximum.
            tol = 1e-12 if n < late else 1e-11
            g = propagate_n(cat, wavepacket(0.3, 0.4, h), n)
            frame = husimi(g, res)
            peak = np.unravel_index(np.argmax(frame), frame.shape)
            for i, j in (peak, (0, 0), (res // 3, 2 * res // 5), (res - 1, 1)):
                lattice = pair_symmetrized_detailed(g, wavepacket(i / res, j / res, h))[0]
                assert abs(frame[i, j] - n_dim * abs(lattice) ** 2) <= tol * frame.max()


def test_propagator_matrix_equivariance(cat):
    # (2, 3, 1, 2) has b = 3, a chain of two b = 1 factors; the unit constant
    # comes from the chain, and both packets check it.
    for m in (cat, Sl2IntMatrix(2, 3, 1, 2)):
        for n_dim in (4, 16):
            u = build_propagator_matrix(m, n_dim)
            for q, p in ((0.3, 0.4), (0.7, 0.2)):
                g = wavepacket(q, p, 1.0 / n_dim)
                lhs = u @ torus_coefficients(g).coeffs
                rhs = torus_coefficients(propagate_n(m, g, 1)).coeffs
                assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_propagator_matrix_errors(cat):
    with pytest.raises(OddNError):
        build_propagator_matrix(cat, 3)
    # The first N above the cap fails before any array is formed.
    with pytest.raises(TruncationOverflowError, match="cap"):
        build_propagator_matrix(cat, qcat.torus._MAX_DENSE_N + 2)


ORACLE_MATRICES = (Sl2IntMatrix(2, 1, 1, 1), Sl2IntMatrix(3, 1, 2, 1), Sl2IntMatrix(2, 3, 1, 2))


def test_propagator_matrix_matches_comb_oracle():
    for m in ORACLE_MATRICES:
        for n_dim in (2, 4, 16, 36, 64):
            u = build_propagator_matrix(m, n_dim)
            assert np.max(np.abs(u - comb_propagator_matrix(m, n_dim))) < 1e-12


# Trace < -2, a = 0, or both: the matrices the flow route refused.
FAMILY_MATRICES = (Sl2IntMatrix(-3, 1, -1, 0), Sl2IntMatrix(0, 1, -1, 3),
                   Sl2IntMatrix(-2, -1, -1, -1), Sl2IntMatrix(-2, -3, -1, -2))


def _hyperbolic_family(bound: int) -> list[Sl2IntMatrix]:
    """Every hyperbolic matrix with a, b, c in [-bound, bound]: d = (1 + bc)/a
    when that is an integer, and d in the same range when a = 0."""
    out = []
    for a, b, c in itertools.product(range(-bound, bound + 1), repeat=3):
        if a != 0:
            ds = [(1 + b * c) // a] if (1 + b * c) % a == 0 else []
        else:
            ds = range(-bound, bound + 1) if b * c == -1 else []
        out += [Sl2IntMatrix(a, b, c, d) for d in ds if abs(a + d) > 2]
    return out


def test_propagator_matrix_unit_is_the_pinned_root():
    # The closed-form unit constant gives the bits of the build whose unit
    # one propagated packet pins (tests/oracles.py).
    family = _hyperbolic_family(5)
    assert len(family) > 300
    for m in family:
        for n_dim in (2, 16, 64):
            u = build_propagator_matrix(m, n_dim)
            assert np.array_equal(u, pinned_propagator_matrix(m, n_dim)), (m, n_dim)
    for m in ORACLE_MATRICES + FAMILY_MATRICES:
        assert np.array_equal(build_propagator_matrix(m, 256), pinned_propagator_matrix(m, 256)), m


def test_propagator_matrix_forms_no_gaussian_state(cat, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense build formed a Gaussian state")

    for name in ("periodized_samples", "propagate_n", "wavepacket"):
        monkeypatch.setattr(qcat.torus, name, refuse)
    for m in (cat, Sl2IntMatrix(0, 1, -1, 3), Sl2IntMatrix(-2, -3, -1, -2), Sl2IntMatrix(1, 0, 0, 1)):
        u = build_propagator_matrix(m, 16)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-13
    with pytest.raises(NonHyperbolicError):
        build_propagator_matrix(Sl2IntMatrix(1, 1, 0, 1), 16)


def test_propagator_matrix_of_huge_entries_has_a_scalar_period_power():
    # A five-shear chain whose coherent state leaves the float range after
    # one step: the unit constant needs no state, so the build runs and
    # U^P = c I for the period P of M mod 2N.
    m = Sl2IntMatrix(10 ** 20 + 1, 10 ** 20, 1, 1)
    assert len(_shear_chain(m)) == 5
    with pytest.raises(NumericalToleranceError):
        propagate_n(m, wavepacket(0.3, 0.4, 1.0 / 16), 1)
    for n_dim in (16, 64):
        u = build_propagator_matrix(m, n_dim)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n_dim))) < 1e-13
        power = np.linalg.matrix_power(u, _torus_period(m, 2 * n_dim))
        c = np.trace(power) / n_dim
        assert abs(abs(c) - 1.0) < 1e-12
        assert np.max(np.abs(power - c * np.eye(n_dim))) < 1e-12


def test_propagator_matrix_error_parity(cat):
    cases = (
        (cat, 3, OddNError),
        (Sl2IntMatrix(1, 1, 0, 1), 4, NonHyperbolicError),
    )
    for m, n_dim, error in cases:
        for build in (build_propagator_matrix, comb_propagator_matrix):
            with pytest.raises(error):
                build(m, n_dim)
    # The whole hyperbolic family takes the one build, and the comb oracle agrees.
    for m in FAMILY_MATRICES:
        for n_dim in (2, 4, 16, 36, 64):
            u = build_propagator_matrix(m, n_dim)
            assert np.max(np.abs(u - comb_propagator_matrix(m, n_dim))) < 1e-12, (m, n_dim)
    identity = Sl2IntMatrix(1, 0, 0, 1)
    for n_dim in (2, 16):
        assert np.max(np.abs(build_propagator_matrix(identity, n_dim) - np.eye(n_dim))) < 1e-14
        assert np.max(np.abs(comb_propagator_matrix(identity, n_dim) - np.eye(n_dim))) < 1e-12


def test_shear_chain_reproduces_matrix():
    # M = L_(x_k) J ... J L_(x_0), for signs and sizes of b that the three
    # experiment matrices do not reach (b < 0, b = -1, b = 0).
    def shear(x):
        return Sl2IntMatrix(1, 0, x, 1)

    j = Sl2IntMatrix(0, 1, -1, 0)
    for m in ORACLE_MATRICES + FAMILY_MATRICES + (
        Sl2IntMatrix(2, -1, -1, 1), Sl2IntMatrix(7, -3, -2, 1), Sl2IntMatrix(-1, 0, 4, -1),
        Sl2IntMatrix(1, 0, 0, 1), Sl2IntMatrix(13, 8, 8, 5), Sl2IntMatrix(5, 2, 2, 1),
        Sl2IntMatrix(10 ** 6 + 1, 10 ** 6, 1, 1), Sl2IntMatrix(10 ** 20 + 1, 10 ** 20, 1, 1),
    ):
        shears = _shear_chain(m)
        # Each step takes the nearest quotient, so |b| at least halves.
        if m.b != 0:
            assert len(shears) <= math.log2(abs(m.b)) + 4, m
        product = shear(shears[0])
        for x in shears[1:]:
            product = shear(x) @ j @ product
        assert product == m
    assert _shear_chain(Sl2IntMatrix(2, 1, 1, 1)) == [2, 1]


def _torus_period(m: Sl2IntMatrix, modulus: int) -> int:
    power, period = m, 1
    while (power.a % modulus, power.b % modulus, power.c % modulus, power.d % modulus) != (1, 0, 0, 1):
        power, period = power @ m, period + 1
    return period


def test_propagator_of_minus_m_is_parity_times_propagator():
    # -M = (-I) M, and -I is quantized by the parity d_k -> d_(-k) of the
    # coefficients, so U(-M) = c Pi U(M) with |c| = 1.
    for m in (Sl2IntMatrix(2, 1, 1, 1), Sl2IntMatrix(3, 1, 2, 1)):
        neg = Sl2IntMatrix(-m.a, -m.b, -m.c, -m.d)
        for n_dim in (16, 64):
            pi_u = build_propagator_matrix(m, n_dim)[-np.arange(n_dim)]
            u_neg = build_propagator_matrix(neg, n_dim)
            c = np.vdot(pi_u, u_neg) / n_dim
            assert abs(abs(c) - 1.0) < 1e-12
            assert np.max(np.abs(u_neg - c * pi_u)) < 1e-12


def test_propagator_power_at_period_is_scalar():
    # Keating (1991): U^P is a unit multiple c of the identity for the period
    # P of M mod 2N, so every eigenphase lies on (arg c + 2 pi k) / P.
    for m in ORACLE_MATRICES + (Sl2IntMatrix(0, 1, -1, 3), Sl2IntMatrix(-2, -1, -1, -1)):
        for n_dim in (16, 36, 64, 144):
            u = build_propagator_matrix(m, n_dim)
            period = _torus_period(m, 2 * n_dim)
            power = np.linalg.matrix_power(u, period)
            c = np.trace(power) / n_dim
            assert abs(abs(c) - 1.0) < 1e-11
            assert np.max(np.abs(power - c * np.eye(n_dim))) < 1e-11
            turns = (period * np.angle(np.linalg.eigvals(u)) - np.angle(c)) / (2.0 * math.pi)
            assert np.max(np.abs(turns - np.round(turns))) < 1e-11


@pytest.mark.parametrize("n_dim", [2, 4, 16, 36, 64, 128, 144, 256])
def test_comb_gram_min_eig_matches_dense_oracle(n_dim):
    # The closed form (1 - 2q)^2 / (1 + 2q^2), q = e^(-20 pi), that the
    # unitarity table writes.
    dense = dense_comb_gram_min_eig(n_dim)
    cfg = ExperimentConfig(matrix=(2, 1, 1, 1), N_values=(n_dim,), n_mode="absolute",
                           n_values=(1,), points=(), grid_resolution=64, seed=1)
    [(_, _, closed, _)] = run_unitarity(cfg).table.rows
    assert abs(closed - dense) <= 1e-13


def test_periodized_samples_cap(cat, monkeypatch):
    # A packet spread over 4e150 periods (egorov at N = 16, n = 360) is
    # refused before any array is formed; at N = 16 the largest radius is
    # (2^24 / 16 - 1) // 2.
    g = propagate_n(cat, wavepacket(0.3, 0.4, 1.0 / 16.0), 360)
    with pytest.raises(TruncationOverflowError, match="is above the cap 524287$"):
        periodized_samples(g)
    # The cap bounds the (2K + 1) N samples formed: a window of exactly the
    # cap passes, and one sample less refuses K.
    g = propagate_n(cat, wavepacket(0.3, 0.4, 1.0 / 16.0), 3)
    amp, mu = abs(g.amplitude), 2.0 * math.pi * complex(g.theta).imag / g.h
    half = scan_radius(amp, mu, qcat.torus._SAMPLE_TAIL * amp, line_tail_bound)
    monkeypatch.setattr(qcat.torus, "_MAX_SAMPLES", (2 * half + 1) * 16)
    assert periodized_samples(g).shape == (16,)
    monkeypatch.setattr(qcat.torus, "_MAX_SAMPLES", (2 * half + 1) * 16 - 1)
    with pytest.raises(TruncationOverflowError,
                       match=f"^certified radius {half} is above the cap {half - 1}$"):
        periodized_samples(g)


def test_periodized_samples_blocks_keep_the_bits(cat, monkeypatch):
    # Each block is summed with the running total prepended as its first
    # row; the axis-0 sum adds rows in order, so 1, 2 and 5 blocks give the
    # bits of one sum over the whole grid.
    g = propagate_n(cat, wavepacket(0.3, 0.4, 1.0 / 16.0), 5)
    shapes = []

    def recorded(state, x):
        shapes.append(x.shape)
        return gaussian_eval(state, x)

    monkeypatch.setattr(qcat.torus, "gaussian_eval", recorded)
    monkeypatch.setattr(qcat.torus, "_SAMPLE_BLOCK", 1 << 62)
    whole = periodized_samples(g)
    [(rows, n_dim)] = shapes
    assert rows > 100
    for blocks in (1, 2, 5):
        shapes.clear()
        monkeypatch.setattr(qcat.torus, "_SAMPLE_BLOCK", math.ceil(rows / blocks) * n_dim)
        got = periodized_samples(g)
        assert len(shapes) == blocks and sum(shape[0] for shape in shapes) == rows
        assert np.array_equal(got.view(np.float64), whole.view(np.float64)), blocks


def test_periodized_samples_memory_is_one_block():
    # About 2.3e6 samples: the whole long-double grid peaked near 207 MiB;
    # blocks of 2^18 samples keep the peak near 24 MiB.
    n_dim = 64
    half = (1 << 21) / (2 * n_dim)
    im = math.log(1e16) / (n_dim * math.pi * (half - 1.0) ** 2)
    with TracedPeak() as peak:
        v = periodized_samples(GaussianState(1.0, complex(0.1, im), 0.3, 0.4, 1.0 / n_dim))
    assert v.shape == (n_dim,)
    assert peak.mib < 48.0


def test_propagator_build_memory_is_one_matrix(cat):
    # The cat map at N = 2048: the in-place build holds one 64 MiB matrix; a
    # build that allocated a new matrix per step peaked near 192 MiB.
    with TracedPeak() as peak:
        build_propagator_matrix(cat, 2048)
    assert peak.mib < 96.0


def test_unitarity_memory_is_one_gram_block():
    # run_unitarity at N = 2048 forms its Gram matrix in row blocks of at
    # most 16 MiB and peaks near 112 MiB; the whole Gram matrix peaked near
    # 192 MiB.
    with TracedPeak() as peak:
        run_unitarity(ExperimentConfig(matrix=(2, 1, 1, 1), N_values=(2048,), n_mode="absolute",
                                       n_values=(1,), points=(), grid_resolution=64, seed=1))
    assert peak.mib < 144.0


def test_periodized_samples_read_n_from_h():
    for n_dim in (2, 16, 36):
        assert periodized_samples(wavepacket(0.3, 0.4, 1.0 / n_dim)).shape == (n_dim,)
    with pytest.raises(OddNError):
        periodized_samples(wavepacket(0.3, 0.4, 1.0 / 15.0))


@pytest.mark.parametrize("n_dim", [2, 4, 16, 36, 64, 128, 144, 256])
def test_comb_samples_are_shifts_of_comb_zero(n_dim):
    # The closed form rests on this: comb state k is comb state 0 moved by
    # k/N.  The sample offsets r/N + m - k/N are exact for N a power of 2;
    # for other N they round, but only where the near-delta samples are
    # flat (r = k) or negligible (every other r).
    s0 = periodized_samples(comb_state(n_dim, 0))
    for k in range(n_dim):
        sk = periodized_samples(comb_state(n_dim, k))
        if n_dim & (n_dim - 1) == 0:
            assert np.array_equal(sk, np.roll(s0, k))
        else:
            assert np.max(np.abs(sk - np.roll(s0, k))) <= 1e-38 * np.max(np.abs(sk))


def test_matrix_element_routes_agree(cat):
    n_dim = 16
    h = 1.0 / n_dim
    src, dst = TorusPoint(0.3, 0.4), TorusPoint(0.0, 0.0)
    u = build_propagator_matrix(cat, n_dim)
    d_src = torus_coefficients(wavepacket(src.q, src.p, h)).coeffs
    d_dst = torus_coefficients(wavepacket(dst.q, dst.p, h)).coeffs
    via_matrix = complex(np.sum((u @ d_src) * np.conj(d_dst)))
    assert abs(matrix_element_exact(cat, 1, src, dst, n_dim) - via_matrix) < 1e-8


def test_matrix_element_diagonal_and_shift_invariance(cat):
    n_dim = 16
    h = 1.0 / n_dim
    diag = matrix_element_exact(cat, 0, TorusPoint(0.0, 0.0), TorusPoint(0.0, 0.0), n_dim)
    assert diag.imag == pytest.approx(0.0, abs=1e-12)
    assert diag.real > 0
    # Integer shifts of either argument change nothing but a unit phase.
    g = propagate_n(cat, wavepacket(0.3, 0.4, h), 1)
    base = pair_symmetrized_detailed(g, wavepacket(0.1, 0.8, h))[0]
    g_shift = propagate_n(cat, wavepacket(0.3 + 1.0, 0.4, h), 1)
    shifted = pair_symmetrized_detailed(g_shift, wavepacket(0.1, 0.8 + 1.0, h))[0]
    assert abs(abs(base) - abs(shifted)) < 1e-12


def test_husimi_localization_and_mass(cat):
    n_dim = 64
    dens = husimi(wavepacket(0.5, 0.5, 1.0 / n_dim), 64)
    assert np.all(dens >= 0.0)
    i, j = np.unravel_index(np.argmax(dens), dens.shape)
    assert abs(i / 64 - 0.5) <= 1.0 / 64 and abs(j / 64 - 0.5) <= 1.0 / 64
    # Total Riemann mass approximates the squared torus norm, stably in R.
    n_dim = 32
    g = propagate_n(cat, wavepacket(0.3, 0.4, 1.0 / n_dim), 2)
    norm_sq = pair_from_coefficients(torus_coefficients(g), torus_coefficients(g)).real
    masses = [float(np.sum(husimi(g, r))) / r ** 2 for r in (64, 128)]
    assert abs(masses[1] - norm_sq) / norm_sq < 1e-3
    assert abs(masses[1] - masses[0]) / norm_sq < 1e-3
    with pytest.raises(ValueError):
        husimi(g, 4)


def test_slow_variation_pairing_bound(cat):
    # |<(U^n f - L(n)), Phi_(q0+m, p0+p(m))>| <= C |(U^n f - L(n))(q0+m)| h^(1/4)
    # with one constant across m, n and both N values: fit at N = 16, demand
    # no blowup at N = 64.
    sd = spectral_data(cat)
    q0, p0 = 0.3, 0.7

    def ratios(n_dim):
        h = 1.0 / n_dim
        te = ehrenfest_time(h, sd.lam)
        out = []
        for n in range(math.ceil(te), 2 * math.ceil(te) + 1):
            g, _ = aligned_propagated_state(cat, n, h)
            lag = make_damped_lagrangian(cat, n, h)
            form = lagrangian_overlap_field(lag)
            scale = abs(g.amplitude) / lag.norm_constant
            for m in range(-20, 21):
                x = q0 + m
                p = p0 + band_rows(lag, TorusPoint(q0, p0), m)
                phi = wavepacket(x, p, h)
                num = abs(gaussian_overlap(g, phi) - scale * form.terms(x, p))
                den = abs(gaussian_eval(g, x) - scale * np.asarray(lagrangian_eval(lag, x)))
                if den > 1e-280 and num > 1e-280:
                    out.append(num / (den * h ** 0.25))
        return out

    fit = max(ratios(16))
    assert max(ratios(64)) <= 5.0 * fit


def test_determinism_bitwise(cat):
    g = propagate_n(cat, wavepacket(0.3, 0.4, 1.0 / 16.0), 2)
    t = wavepacket(0.1, 0.8, 1.0 / 16.0)
    a = pair_symmetrized_detailed(g, t)[0]
    b = pair_symmetrized_detailed(g, t)[0]
    assert a == b
