from __future__ import annotations

import math
import time

import numpy as np
import pytest

import qcat.torus
from conftest import comb_propagator_matrix, dense_at_box_points, dense_comb_gram_min_eig
from oracles import PlaneTranslation, gaussian_overlap, lagrangian_eval, overlap_quadrature, translate
from qcat.classical import Sl2IntMatrix, TorusPoint, ehrenfest_time, spectral_data
from qcat.errors import (
    MismatchedHError,
    NegativeSpectrumError,
    NonHyperbolicError,
    NotPerfectSquareError,
    NumericalToleranceError,
    OddNError,
    TruncationOverflowError,
    ZeroACoefficientError,
)
from qcat.lagrangian import (
    BandIndexer,
    aligned_propagated_state,
    lagrangian_overlap_field,
    make_damped_lagrangian,
)
from qcat.metaplectic import GaussianState, cis_turns, gaussian_eval, propagate_n, wavepacket
from qcat.torus import (
    _shear_chain,
    build_propagator_matrix,
    comb_gram_min_eig,
    comb_state,
    husimi,
    matrix_element_exact,
    overlap_form,
    pair_from_coefficients,
    pair_symmetrized,
    pair_symmetrized_detailed,
    periodized_samples,
    shell_tail_bound,
    torus_coefficients,
    wavepacket_lattice,
)


def test_pair_diagonal_real_positive():
    g = wavepacket(0.0, 0.0, 1.0 / 8.0)
    val = pair_symmetrized(g, g)
    assert val.imag == pytest.approx(0.0, abs=1e-13)
    assert val.real > 0


def test_pair_invariance_under_integer_translation():
    h = 1.0 / 8.0
    g = wavepacket(0.3, 0.6, h)
    test = wavepacket(0.1, 0.9, h)
    base = pair_symmetrized(g, test)
    shifted = pair_symmetrized(translate(g, PlaneTranslation(1.0, 0.0)), test)
    assert abs(abs(shifted) - abs(base)) < 1e-12
    # Plain recentering of the test packet also preserves the modulus.
    moved = pair_symmetrized(g, wavepacket(0.1 + 1.0, 0.9, h))
    assert abs(abs(moved) - abs(base)) < 1e-12


def test_pair_against_bruteforce_quadrature():
    # N = 2: compare with a K = 6 lattice sum of quadrature overlaps.
    h = 0.5
    g = wavepacket(0.0, 0.0, h)
    brute = 0.0 + 0.0j
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            brute += overlap_quadrature(translate(g, PlaneTranslation(k1, k2)), g, h)
    val, trunc = pair_symmetrized_detailed(g, g)
    assert abs(val - brute) < 1e-10
    assert trunc.certified_tail < 1e-13


def test_pair_validation_errors():
    with pytest.raises(MismatchedHError):
        pair_symmetrized(wavepacket(0, 0, 0.5), wavepacket(0, 0, 0.25))
    with pytest.raises(OddNError):
        pair_symmetrized(wavepacket(0, 0, 1.0 / 3.0), wavepacket(0, 0, 1.0 / 3.0))
    with pytest.raises(TruncationOverflowError):
        pair_symmetrized(
            wavepacket(0, 0, 1.0 / 64.0), wavepacket(0, 0, 1.0 / 64.0), max_terms=4
        )


def _scan_certified_radius(g, test, tail_target=1e-13):
    """Oracle: the certified radius found by stepping r = 1, 2, ... until
    peak * shell_tail_bound(r, mu) <= tail_target * |g| |test|."""
    _, mu, peak = overlap_form(g, test).envelope()
    target = tail_target * max(g.norm * test.norm, 1e-300)
    radius = 1
    while peak * shell_tail_bound(radius, mu) > target:
        radius += 1
    return radius


def test_certified_radius_matches_scan(cat):
    src, dst = TorusPoint(0.3, 0.7), TorusPoint(0.2, 0.9)
    for n_dim, n in ((2, 0), (16, 0), (64, 0), (16, 3), (64, 5), (256, 6), (1024, 8)):
        h = 1.0 / n_dim
        g = propagate_n(cat, wavepacket(src.q, src.p, h), n)
        test = wavepacket(dst.q, dst.p, h)
        _, trunc = pair_symmetrized_detailed(g, test)
        assert trunc.radius == _scan_certified_radius(g, test), (n_dim, n)

    # Past the term cap the same radius is reported, without stepping up to it.
    h = 1.0 / 1024
    g = propagate_n(cat, wavepacket(src.q, src.p, h), 16)
    radius = _scan_certified_radius(g, wavepacket(dst.q, dst.p, h))
    assert (2 * radius + 1) ** 2 > 5_000_000
    start = time.perf_counter()
    with pytest.raises(TruncationOverflowError) as err:
        matrix_element_exact(cat, 16, src, dst, 1024)
    assert time.perf_counter() - start < 0.25
    assert str(err.value) == f"certified radius {radius} needs more than 5000000 lattice terms"


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


def test_parseval_route_matches_lattice_route():
    for n_dim in (2, 8, 16):
        h = 1.0 / n_dim
        ga = wavepacket(0.23, 0.71, h)
        gb = wavepacket(0.6, 0.1, h)
        lat = pair_symmetrized(ga, gb)
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
            frame = husimi(g, res).values
            peak = np.unravel_index(np.argmax(frame), frame.shape)
            for i, j in (peak, (0, 0), (res // 3, 2 * res // 5), (res - 1, 1)):
                lattice = pair_symmetrized(g, wavepacket(i / res, j / res, h))
                assert abs(frame[i, j] - n_dim * abs(lattice) ** 2) <= tol * frame.max()


def test_propagator_matrix_unitary(cat):
    u2 = build_propagator_matrix(cat, 2)
    assert abs(abs(np.linalg.det(u2)) - 1.0) < 1e-10
    for n_dim in (2, 4, 8, 16):
        u = build_propagator_matrix(cat, n_dim)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n_dim))) < 1e-9


def test_propagator_matrix_equivariance(cat):
    # (2, 3, 1, 2) has b = 3, a chain of two b = 1 factors; the packet at
    # (0.7, 0.2) is not the one that pins the constant.
    for m in (cat, Sl2IntMatrix(2, 3, 1, 2)):
        for n_dim in (4, 16):
            u = build_propagator_matrix(m, n_dim)
            for q, p in ((0.3, 0.4), (0.7, 0.2)):
                g = wavepacket(q, p, 1.0 / n_dim)
                lhs = u @ torus_coefficients(g).coeffs
                rhs = torus_coefficients(propagate_n(m, g, 1)).coeffs
                assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_propagator_matrix_errors(cat, monkeypatch):
    with pytest.raises(OddNError):
        build_propagator_matrix(cat, 3)
    # A chain that is not the matrix fails the pinning packet loudly.
    monkeypatch.setattr(qcat.torus, "_shear_chain", lambda m: [2, 2])
    with pytest.raises(NumericalToleranceError, match="off the root"):
        build_propagator_matrix(cat, 16)


ORACLE_MATRICES = (Sl2IntMatrix(2, 1, 1, 1), Sl2IntMatrix(3, 1, 2, 1), Sl2IntMatrix(2, 3, 1, 2))


def test_propagator_matrix_matches_comb_oracle():
    for m in ORACLE_MATRICES:
        for n_dim in (2, 4, 16, 36, 64):
            u = build_propagator_matrix(m, n_dim)
            assert np.max(np.abs(u - comb_propagator_matrix(m, n_dim))) < 1e-12


def test_propagator_matrix_error_parity(cat):
    cases = (
        (cat, 3, OddNError),
        (Sl2IntMatrix(1, 1, 0, 1), 4, NonHyperbolicError),
        (Sl2IntMatrix(-3, 1, -1, 0), 4, NegativeSpectrumError),
        (Sl2IntMatrix(0, 1, -1, 3), 4, ZeroACoefficientError),
    )
    for m, n_dim, error in cases:
        for build in (build_propagator_matrix, comb_propagator_matrix):
            with pytest.raises(error):
                build(m, n_dim)
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
    for m in ORACLE_MATRICES + (
        Sl2IntMatrix(2, -1, -1, 1), Sl2IntMatrix(7, -3, -2, 1), Sl2IntMatrix(-1, 0, 4, -1),
        Sl2IntMatrix(1, 0, 0, 1), Sl2IntMatrix(13, 8, 8, 5), Sl2IntMatrix(0, 1, -1, 3),
    ):
        shears = _shear_chain(m)
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


def test_propagator_power_at_period_is_scalar():
    # Keating (1991): U^P is a unit multiple c of the identity for the period
    # P of M mod 2N, so every eigenphase lies on (arg c + 2 pi k) / P.
    for m in ORACLE_MATRICES:
        for n_dim in (16, 36, 64, 144):
            u = build_propagator_matrix(m, n_dim)
            period = _torus_period(m, 2 * n_dim)
            power = np.linalg.matrix_power(u, period)
            c = np.trace(power) / n_dim
            assert abs(abs(c) - 1.0) < 1e-11
            assert np.max(np.abs(power - c * np.eye(n_dim))) < 1e-11
            turns = (period * np.angle(np.linalg.eigvals(u)) - np.angle(c)) / (2.0 * math.pi)
            assert np.max(np.abs(turns - np.round(turns))) < 1e-11


def test_gram_rank_is_n(cat):
    for n_dim in (2, 4, 8, 16):
        basis = [comb_state(n_dim, k) for k in range(n_dim)]
        gram = np.array([[pair_symmetrized(bk, bj) for bk in basis] for bj in basis])
        norm = np.sqrt(np.real(np.diag(gram)))
        gram_n = gram / np.outer(norm, norm)
        eigs = np.linalg.eigvalsh((gram_n + gram_n.conj().T) / 2.0)
        assert eigs[0] > 1e-10


@pytest.mark.parametrize("n_dim", [2, 4, 16, 36, 64, 128, 144, 256])
def test_comb_gram_min_eig_matches_dense_oracle(n_dim):
    assert abs(comb_gram_min_eig(n_dim) - dense_comb_gram_min_eig(n_dim)) <= 1e-13


@pytest.mark.parametrize("n_dim", [2, 4, 16, 36, 64, 128, 144, 256])
def test_comb_samples_are_shifts_of_comb_zero(n_dim):
    # The closed form rests on this: comb state k is comb state 0 moved by
    # k/N.  The sample offsets r/N + m - k/N are exact for N a power of 2;
    # for other N they round, but only where the near-delta samples are
    # flat (r = k) or negligible (every other r).
    s0 = periodized_samples(comb_state(n_dim, 0), n_dim)
    for k in range(n_dim):
        sk = periodized_samples(comb_state(n_dim, k), n_dim)
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
    base = pair_symmetrized(g, wavepacket(0.1, 0.8, h))
    g_shift = propagate_n(cat, wavepacket(0.3 + 1.0, 0.4, h), 1)
    shifted = pair_symmetrized(g_shift, wavepacket(0.1, 0.8 + 1.0, h))
    assert abs(abs(base) - abs(shifted)) < 1e-12


def test_husimi_localization_and_mass(cat):
    n_dim = 64
    grid = husimi(wavepacket(0.5, 0.5, 1.0 / n_dim), 64)
    assert np.all(grid.values >= 0.0)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert abs(i / 64 - 0.5) <= 1.0 / 64 and abs(j / 64 - 0.5) <= 1.0 / 64
    # Total Riemann mass approximates the squared torus norm, stably in R.
    n_dim = 32
    g = propagate_n(cat, wavepacket(0.3, 0.4, 1.0 / n_dim), 2)
    norm_sq = pair_symmetrized(g, g).real
    masses = [husimi(g, r).riemann_mass for r in (64, 128)]
    assert abs(masses[1] - norm_sq) / norm_sq < 1e-3
    assert abs(masses[1] - masses[0]) / norm_sq < 1e-3
    with pytest.raises(ValueError):
        husimi(g, 4)


def test_wavepacket_lattice():
    pts = wavepacket_lattice(4)
    assert {(p.q, p.p) for p in pts} == {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}
    pts16 = wavepacket_lattice(16)
    assert len(pts16) == 16
    assert sorted({p.q for p in pts16}) == [0.0, 0.25, 0.5, 0.75]
    with pytest.raises(NotPerfectSquareError):
        wavepacket_lattice(8)
    # Frame Gram conditioning is finite and positive (no orthonormality assumed).
    h = 1.0 / 16.0
    frame = [wavepacket(p.q, p.p, h) for p in pts16]
    gram = np.array([[pair_symmetrized(a, b) for a in frame] for b in frame])
    cond = np.linalg.cond((gram + gram.conj().T) / 2.0)
    assert np.isfinite(cond) and cond > 0


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
            indexer = BandIndexer(theta=sd.theta, q0=q0, p0=p0, s_prime=0.0)
            for m in range(-20, 21):
                x = q0 + m
                p = p0 + indexer.p_of(m)
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
    a = pair_symmetrized(g, t)
    b = pair_symmetrized(g, t)
    assert a == b
