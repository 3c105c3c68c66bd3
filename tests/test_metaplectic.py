from __future__ import annotations

import ast
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import conftest
import qcat.classical
from conftest import (QCAT_ROOT, _branch_sqrt_inv, floor_frac_turns, random_gaussian_state,
                      random_hyperbolic)
from oracles import (
    PlaneTranslation,
    compose_translation_phase,
    gaussian_overlap,
    h_fourier_gaussian,
    hamiltonian_from_matrix,
    overlap_quadrature,
    schrodinger_residual,
    tanh_sinh,
    translate,
)
from qcat.classical import (
    FlowCoefficients,
    QuadraticHamiltonian,
    Sl2IntMatrix,
    flow_coefficients,
    spectral_data,
)
from qcat.errors import MismatchedHError, NonPositiveHError, NumericalToleranceError
from qcat.metaplectic import (
    GaussianState,
    _propagate_core,
    cis_turns,
    frac_turns,
    gaussian_eval,
    mod1,
    propagate_n,
    wavepacket,
)
from qcat.torus import build_propagator_matrix


def quantum_translation_pointwise(v: PlaneTranslation, h: float, u, x):
    """Reference operator: u -> exp(-i pi a b/h) exp(2 i pi b x/h) u(x - a)."""
    return (
        np.exp(-1j * math.pi * v.a * v.b / h)
        * np.exp(2j * math.pi * v.b * np.asarray(x) / h)
        * u(np.asarray(x) - v.a)
    )


def _special_turns() -> np.ndarray:
    """+-0, integers, +-1/2, +-3/2, the long-double neighbours of +-1/2 and
    0, a tiny negative, +-inf and nan, in long double."""
    ld = np.longdouble
    halves = np.array([0.5, -0.5], dtype=ld)
    return np.concatenate([
        np.array([0.0, -0.0, 1.0, -1.0, 7.0, -7.0, 2.0 ** 62, -(2.0 ** 62), 0.5, -0.5, 1.5, -1.5,
                  -1e-30, np.inf, -np.inf, np.nan], dtype=ld),
        np.nextafter(halves, ld(0.0)), np.nextafter(halves, ld(2.0) * halves),
        np.nextafter(np.zeros(2, dtype=ld), np.array([1.0, -1.0], dtype=ld)),
    ])


def test_frac_turns_has_the_bits_of_floor():
    # Long doubles up to +-1e15 over 18 decades, each with bits below float64
    # where the platform's long double has them.
    rng = np.random.default_rng(20240901)
    size = 200_000
    mag = np.asarray(10.0 ** rng.uniform(-3.0, 15.0, size), dtype=np.longdouble)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    t = sign * mag * (1 + np.asarray(rng.uniform(-1.0, 1.0, size), dtype=np.longdouble) * 2.0 ** -60)
    if np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant:
        assert np.count_nonzero(t != np.asarray(t, dtype=np.float64)) > size // 2
    assert np.count_nonzero(t < 0) > size // 3 and np.count_nonzero(np.abs(t) < 0.5) > size // 20
    got = frac_turns(t)
    assert got.dtype == np.float64 and got.shape == t.shape
    assert np.array_equal(got.view(np.int64), floor_frac_turns(t).view(np.int64))

    special = _special_turns()
    with np.errstate(invalid="ignore"):
        assert np.array_equal(frac_turns(special).view(np.int64), floor_frac_turns(special).view(np.int64))
        # 0-d inputs give 0-d results with the same bits: long doubles,
        # float64 and Python floats.
        for v in [*special, *t[:200]]:
            for x in (v, np.asarray(v), float(v)):
                got = frac_turns(x)
                assert got.shape == () and got.view(np.int64) == floor_frac_turns(x).view(np.int64), v
    # Long-double turns reach cis_turns through frac_turns, as in gaussian_eval:
    # the floor route gives its bits.
    assert np.array_equal(cis_turns(frac_turns(t)), np.exp(1j * (2.0 * math.pi) * floor_frac_turns(t)))
    for v in t[:50]:
        z = cis_turns(frac_turns(v))
        assert type(z) is complex and z == complex(np.exp(1j * (2.0 * math.pi) * floor_frac_turns(v)))


def test_cis_turns_reduces_float64_turns_in_float64():
    # Float64 draws up to +-1e15 over 18 decades.  Outside (-1/2, 0),
    # t - floor(t) is exact in float64, so cis_turns has the bits of the
    # long-double reduction.
    rng = np.random.default_rng(20240901)
    size = 200_000
    t = np.where(rng.random(size) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 15.0, size)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, -0.5, 1.5, -1.5,
                        2.0 ** 52 + 0.5, -(2.0 ** 52) - 0.5, np.nextafter(-0.5, -1.0)])
    outside = np.concatenate([t[(t >= 0.0) | (t <= -0.5)], special])
    assert outside.size > size // 2 and np.count_nonzero(outside < 0) > size // 3
    with np.errstate(invalid="ignore"):
        want = np.exp(1j * (2.0 * math.pi) * frac_turns(outside))
        assert np.array_equal(cis_turns(outside).view(np.int64), want.view(np.int64))
    # Inside (-1/2, 0) the reduction is the correctly rounded t + 1, which a
    # long-double reduction misses where it rounds twice (32 of these draws
    # with an 80-bit long double).
    inside = np.concatenate([-(10.0 ** rng.uniform(-20.0, math.log10(0.5), size)),
                             [np.nextafter(-0.5, 0.0), -1e-300, -5e-324, -(2.0 ** -54)]])
    want = np.array([float(Fraction(v) + 1) for v in inside.tolist()])
    assert np.array_equal(mod1(inside), want)
    assert np.array_equal(cis_turns(inside), np.exp(1j * (2.0 * math.pi) * want))
    if np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant:
        assert np.count_nonzero(frac_turns(inside) != want) > 0
    # A 0-d input, a Python number included, gives a Python complex.
    for v in (0.3, -2.75, 12345678.9, 7, -1e-30, np.float64(-0.1), np.asarray(1e15 + 0.5)):
        frac = Fraction(float(v))
        z = cis_turns(v)
        assert type(z) is complex
        assert z == complex(np.exp(1j * (2.0 * math.pi) * float(frac - math.floor(frac)))), v


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                    reason="long double is float64 on this platform")
def test_cis_turns_rejects_long_double():
    # Rounding long-double turns to float64 first would lose the bits they
    # were formed in; frac_turns reduces them.
    for v in (np.longdouble(0.3), np.arange(3, dtype=np.longdouble)):
        with pytest.raises(TypeError, match="frac_turns"):
            cis_turns(v)


def test_long_double_only_where_turns_are_formed_in_it():
    # Long double lives where a turn is formed in it and reduced by
    # frac_turns (gaussian_eval, the Birkhoff orbit phases of the live
    # terms), in frac_turns itself and in the manifest's record of its
    # epsilon.
    found = set()
    for path in sorted((QCAT_ROOT / "qcat").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.attr if isinstance(node, ast.Attribute) else node.id
                     for node in ast.walk(stmt) if isinstance(node, (ast.Attribute, ast.Name))}
            if names & {"longdouble", "clongdouble", "float128", "complex256"}:
                found.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    assert found == {"metaplectic.frac_turns", "metaplectic.gaussian_eval",
                     "birkhoff._live_blocks", "harness._manifest"}


def test_wavepacket_normalization_oracle():
    # The unit-norm constant at h = 1 comes from the Gaussian integral
    # int exp(-2 pi x^2) dx = 1/sqrt(2), evaluated here by quadrature.
    integral = tanh_sinh(lambda x: np.exp(-2.0 * math.pi * x * x), -6.0, 6.0, tol=1e-13)
    c1 = 1.0 / math.sqrt(integral.real)
    assert wavepacket(0.0, 0.0, 1.0).amplitude == pytest.approx(c1, abs=1e-12)
    assert c1 == pytest.approx(2.0 ** 0.25, abs=1e-12)
    assert wavepacket(0.0, 0.0, 0.25).amplitude == pytest.approx(8.0 ** 0.25, abs=1e-12)
    # C_h = C_1 h^(-1/4) scaling and unit L2 norm for several (q, p, h).
    for q, p, h in [(0.0, 0.0, 1.0), (0.3, -0.7, 0.125), (1.4, 2.2, 1.0 / 64.0)]:
        g = wavepacket(q, p, h)
        assert g.amplitude == pytest.approx(2.0 ** 0.25 * h ** -0.25, rel=1e-14)
        assert abs(g.norm - 1.0) < 1e-12
    with pytest.raises(NonPositiveHError):
        wavepacket(0.0, 0.0, 0.0)


def test_gaussian_eval_examples():
    g = wavepacket(0.0, 0.0, 1.0)
    assert gaussian_eval(g, 0.0) == pytest.approx(2.0 ** 0.25, abs=1e-14)
    assert gaussian_eval(g, 1.0) == pytest.approx(2.0 ** 0.25 * math.exp(-math.pi), abs=1e-14)
    g_half = wavepacket(0.0, 0.5, 1.0)
    assert gaussian_eval(g_half, 1.0) == pytest.approx(
        -(2.0 ** 0.25) * math.exp(-math.pi), abs=1e-14
    )


def test_translate_examples_and_pointwise_agreement(rng):
    h = 0.5
    g = wavepacket(0.0, 0.0, h)
    assert translate(g, PlaneTranslation(0.0, 0.0)) == g
    shifted = translate(wavepacket(0.0, 0.0, 1.0), PlaneTranslation(1.0, 0.0))
    assert (shifted.q, shifted.p) == (1.0, 0.0)
    assert shifted.amplitude == pytest.approx(wavepacket(0.0, 0.0, 1.0).amplitude)
    # (1,1) at h = 1/2: overall phase a unit complex number; verified pointwise below.
    diag = translate(g, PlaneTranslation(1.0, 1.0))
    assert (diag.q, diag.p) == (1.0, 1.0)
    xs = np.linspace(-3.0, 3.0, 100)
    for _ in range(12):
        state = random_gaussian_state(rng, h)
        v = PlaneTranslation(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        got = gaussian_eval(translate(state, v), xs)
        want = quantum_translation_pointwise(v, h, lambda x: gaussian_eval(state, x), xs)
        assert np.max(np.abs(got - want)) < 1e-12


def test_composition_phase_law(rng):
    h = 0.5
    v1, v2 = PlaneTranslation(1.0, 0.0), PlaneTranslation(0.0, 1.0)
    assert compose_translation_phase(v1, v2, h) == pytest.approx(1.0)
    assert compose_translation_phase(v1, v1, h) == pytest.approx(1.0)
    # Even 1/h: integer translations commute.
    for n_even in (2, 4, 16):
        assert compose_translation_phase(v1, v2, 1.0 / n_even) == pytest.approx(1.0, abs=1e-12)
    # Operational form: T_v1 T_v2 g = phase * T_(v1+v2) g pointwise.
    xs = np.linspace(-2.0, 2.0, 50)
    for _ in range(8):
        g = random_gaussian_state(rng, h)
        w1 = PlaneTranslation(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        w2 = PlaneTranslation(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        lhs = gaussian_eval(translate(translate(g, w2), w1), xs)
        phase = compose_translation_phase(w1, w2, h)
        rhs = phase * gaussian_eval(
            translate(g, PlaneTranslation(w1.a + w2.a, w1.b + w2.b)), xs
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_commutation_of_unit_translations():
    # T_(1,0) T_(0,1) = e^{2 i pi / h} T_(0,1) T_(1,0)
    h = 0.4
    g = wavepacket(0.1, -0.2, h)
    xs = np.linspace(-2.0, 2.0, 60)
    lhs = gaussian_eval(translate(translate(g, PlaneTranslation(0.0, 1.0)), PlaneTranslation(1.0, 0.0)), xs)
    rhs = np.exp(2j * math.pi / h) * gaussian_eval(
        translate(translate(g, PlaneTranslation(1.0, 0.0)), PlaneTranslation(0.0, 1.0)), xs
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gaussian_overlap_examples(rng):
    h = 0.25
    g0 = wavepacket(0.0, 0.0, h)
    assert gaussian_overlap(g0, g0) == pytest.approx(1.0, abs=1e-13)
    # |<Phi_00, Phi_qp>| = exp(-pi (q^2+p^2) / (2h)); cross-checked by quadrature.
    g1 = wavepacket(0.5, 0.0, h)
    val = gaussian_overlap(g0, g1)
    assert abs(val) == pytest.approx(math.exp(-math.pi / 2.0), abs=1e-12)
    assert abs(val - overlap_quadrature(g0, g1)) < 1e-11
    for _ in range(5):
        g = random_gaussian_state(rng, h)
        self_ov = gaussian_overlap(g, g)
        assert self_ov.imag == pytest.approx(0.0, abs=1e-12)
        assert self_ov.real > 0
    with pytest.raises(MismatchedHError):
        gaussian_overlap(wavepacket(0, 0, 0.5), wavepacket(0, 0, 0.25))


def test_fourier_gaussian():
    h = 0.125
    g = wavepacket(0.0, 0.0, h)
    fg = h_fourier_gaussian(g)
    assert fg.theta == pytest.approx(1j)
    assert fg.amplitude == pytest.approx(g.amplitude)
    # Unitarity for random shapes.
    rng = np.random.default_rng(5)
    for _ in range(8):
        s = random_gaussian_state(rng, h)
        assert h_fourier_gaussian(s).norm == pytest.approx(s.norm, rel=1e-12)
    # Double application is parity with unit phase +1 in this convention.
    s = wavepacket(0.3, -0.2, h)
    xs = np.linspace(-1.5, 1.5, 40)
    assert np.max(np.abs(gaussian_eval(h_fourier_gaussian(h_fourier_gaussian(s)), xs)
                         - gaussian_eval(s, -xs))) < 1e-12
    # Exchange: the transform of Phi_(q,0) is centered at xi = 0 with
    # momentum -q, i.e. carries the phase e^{-2 i pi q xi / h}; against quadrature.
    gq = wavepacket(0.4, 0.0, h)
    fgq = h_fourier_gaussian(gq)
    assert (fgq.q, fgq.p) == (0.0, -0.4)
    for xi in (-0.3, 0.1, 0.45):
        direct = tanh_sinh(
            lambda x: np.exp(-2j * math.pi * x * xi / h) * gaussian_eval(gq, x) / math.sqrt(h),
            0.4 - 10 * math.sqrt(h), 0.4 + 10 * math.sqrt(h), tol=1e-11,
        )
        assert abs(direct - gaussian_eval(fgq, xi)) < 1e-9


def test_propagate_identity_and_dilation(cat):
    h = 1.0 / 8.0
    g = wavepacket(0.0, 0.0, h)
    assert propagate_n(Sl2IntMatrix(1, 0, 0, 1), g, 1) == g
    sd = spectral_data(cat)
    # The dilation is not an integer matrix: one step of the core update.
    dilation = flow_coefficients(QuadraticHamiltonian(0.0, 0.0, math.log(sd.lam)), 1.0)
    out = _propagate_core(dilation.a, dilation.b, dilation.c, dilation.d, g)
    assert out.theta == pytest.approx(1j * sd.lam ** -2, rel=1e-12)
    assert out.amplitude == pytest.approx(g.amplitude * sd.lam ** -0.5, rel=1e-12)


def test_propagate_matches_shape_recursion(cat):
    # Theta' = (c + d Theta)/(a + b Theta), derived by completing the square
    # in the kernel; also pinned against the quadrature oracle in test_quadrature.
    h = 1.0 / 16.0
    g = wavepacket(0.0, 0.0, h)
    out = propagate_n(cat, g, 1)
    assert out.theta == pytest.approx((1.0 + 1.0j) / (2.0 + 1.0j), abs=1e-14)
    # Center moves classically and Im Theta stays positive (Gaussian-level Egorov).
    g2 = wavepacket(0.3, -0.4, h)
    out2 = propagate_n(cat, g2, 1)
    assert out2.q == pytest.approx(2 * 0.3 + 1 * -0.4, abs=1e-14)
    assert out2.p == pytest.approx(1 * 0.3 + 1 * -0.4, abs=1e-14)
    assert complex(out2.theta).imag > 0


def test_propagate_unitarity_random(rng):
    for _ in range(50):
        m = random_hyperbolic(rng)
        g = random_gaussian_state(rng, 0.2)
        out = propagate_n(m, g, 1)
        assert abs(out.norm - g.norm) < 1e-10


def test_group_law_up_to_phase(rng):
    h = 0.25
    for _ in range(10):
        m1, m2 = random_hyperbolic(rng), random_hyperbolic(rng)
        while abs((m1 @ m2).trace) <= 2:
            m2 = random_hyperbolic(rng)
        g = random_gaussian_state(rng, h)
        two_step = propagate_n(m1, propagate_n(m2, g, 1), 1)
        one_step = propagate_n(m1 @ m2, g, 1)
        ov = gaussian_overlap(two_step, one_step)
        assert abs(abs(ov) - g.norm ** 2) < 1e-8


def test_equivariance_pointwise(rng):
    h = 1.0 / 32.0
    xs = np.linspace(-2.0, 2.0, 100)
    for _ in range(20):
        m = random_hyperbolic(rng)
        g = random_gaussian_state(rng, h)
        v = PlaneTranslation(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        mv = PlaneTranslation(m.a * v.a + m.b * v.b, m.c * v.a + m.d * v.b)
        lhs = gaussian_eval(propagate_n(m, translate(g, v), 1), xs)
        rhs = gaussian_eval(translate(propagate_n(m, g, 1), mv), xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_zero_a_propagation(cat, rng):
    # a = 0 takes the one step: it keeps the norm and obeys the group law.
    m, h = Sl2IntMatrix(0, 1, -1, 3), 0.25
    for g in [wavepacket(0.3, -0.2, h)] + [random_gaussian_state(rng, h) for _ in range(5)]:
        assert abs(propagate_n(m, g, 1).norm - g.norm) < 1e-12 * g.norm
        for other in (m, cat, Sl2IntMatrix(-2, -1, -1, -1)):
            two_step = propagate_n(m, propagate_n(other, g, 1), 1)
            one_step = propagate_n(m @ other, g, 1)
            assert abs(abs(gaussian_overlap(two_step, one_step)) - g.norm ** 2) < 1e-8


def test_propagate_n_matches_repeated_application(cat):
    g = wavepacket(0.2, 0.7, 1.0 / 16.0)
    out3 = propagate_n(cat, g, 3)
    step = propagate_n(cat, propagate_n(cat, propagate_n(cat, g, 1), 1), 1)
    assert out3.theta == pytest.approx(step.theta)
    assert out3.amplitude == pytest.approx(step.amplitude)


def test_propagate_n_fails_typed_past_the_float_range(rng):
    # The lifted center grows like lam^n and Im(theta) shrinks like
    # lam^(-2n): for every hyperbolic matrix one of them leaves the float
    # range before n = 390, and propagation says so instead of building an
    # invalid state.
    for _ in range(5):
        m = random_hyperbolic(rng)
        g = wavepacket(0.3, 0.4, 1.0 / 16.0)
        assert propagate_n(m, g, 100).theta.imag > 0.0
        with pytest.raises(NumericalToleranceError, match="leaves the float range"):
            propagate_n(m, g, 400)


def _plane_wave_solution(ham, t, x, xi, h):
    fc = flow_coefficients(ham, t)
    hb = h / (2.0 * math.pi)
    s = (fc.c * x * x + 2.0 * x * xi - fc.b * xi * xi) / (2.0 * fc.a)
    return fc.a ** -0.5 * np.exp(1j * s / hb)


def test_schrodinger_residual(cat):
    ham = hamiltonian_from_matrix(cat)
    h = 1.0 / 32.0
    # Dilation-like case reduces to the scaling solution.
    free = QuadraticHamiltonian(0.0, 0.0, 0.7)
    for t in (0.2, 1.0):
        assert schrodinger_residual(free, t, 0.5, 0.3, h) < 1e-9
    # t = 0: the initial data is the plane wave exactly.
    assert abs(_plane_wave_solution(ham, 0.0, 0.8, 0.3, h)
               - np.exp(2j * math.pi * 0.8 * 0.3 / h)) < 1e-14


def test_schrodinger_residual_vs_finite_differences(cat):
    # Independent check: build i*hbar*du/dt - H u from the explicit solution
    # with finite differences in t and x.
    ham = hamiltonian_from_matrix(cat)
    h = 1.0 / 16.0
    hb = h / (2.0 * math.pi)
    t, x, xi = 0.6, 0.4, 0.3
    dt, dx = 1e-6, 1e-5

    def u(tt, xx):
        return _plane_wave_solution(ham, tt, xx, xi, h)

    du_dt = (u(t + dt, x) - u(t - dt, x)) / (2.0 * dt)
    u_x = (u(t, x + dx) - u(t, x - dx)) / (2.0 * dx)
    u_xx = (u(t, x + dx) - 2.0 * u(t, x) + u(t, x - dx)) / dx ** 2
    h_u = (
        0.5 * ham.alpha * x * x * u(t, x)
        - 1j * hb * ham.gamma * (x * u_x + 0.5 * u(t, x))
        - 0.5 * hb * hb * ham.beta * u_xx
    )
    residual_fd = abs(1j * hb * du_dt - h_u)
    assert abs(residual_fd - schrodinger_residual(ham, t, x, xi, h)) < 1e-5


def _winding_flow(ham, t):
    """Stand-in flow with a = cos(phi), b = sin(phi), phi = 1e6 t^2: a + b*theta
    winds ever faster along the path, so no step count up to 4096 keeps
    every sampled rotation below pi/2."""
    phi = 1e6 * t * t
    return FlowCoefficients(t=t, a=math.cos(phi), b=math.sin(phi), c=-math.sin(phi), d=math.cos(phi))


def test_branch_tracker_fails_loudly_at_step_cap(cat, monkeypatch):
    monkeypatch.setattr(conftest, "flow_coefficients", _winding_flow)
    with pytest.raises(NumericalToleranceError, match="branch unresolved after 4096 steps"):
        _branch_sqrt_inv(hamiltonian_from_matrix(cat), 1.0, 1j)


def test_principal_branch_matches_tracked_branch():
    # Every hyperbolic matrix with entries in [-6, 6] and a != 0, against the
    # branch tracked along the flow of log M, wherever the tracker resolves.
    # No Re(theta) below is -a/b: there |a + b*theta| = |b| Im(theta), and
    # the rounding of the tracker's float flow endpoint, not the step, sets
    # the gap.
    mats = [Sl2IntMatrix(*e) for e in itertools.product(range(-6, 7), repeat=4)
            if e[0] * e[3] - e[1] * e[2] == 1 and e[0] + e[3] > 2 and e[0] != 0]
    thetas = [complex(x, y) for x in (-4.3, -2.3, -0.7, 0.0, 0.45, 1.9, 3.7)
              for y in np.logspace(-3, 5, 9)]
    resolved = 0
    for m in mats:
        ham, grids = hamiltonian_from_matrix(m), {}
        for th in thetas:
            try:
                ref = _branch_sqrt_inv(ham, 1.0, th, grids)
            except NumericalToleranceError:
                continue
            got = propagate_n(m, GaussianState(1.0, th, 0.0, 0.0, 0.5), 1).amplitude
            assert abs(got - ref) <= 1e-13 * abs(ref), (m, th)
            resolved += 1
    assert len(mats) == 100 and resolved >= 0.95 * len(mats) * len(thetas)


@pytest.mark.parametrize("entries, theta", [((2, 1, 1, 1), -2.3 + 1e-4j), ((2, 3, 1, 2), -2.0 + 1e-6j)])
def test_step_near_negative_axis(entries, theta):
    # a + b*theta lies just off the negative real axis, where the flow
    # tracker gives up (NumericalToleranceError).  The step keeps the norm,
    # and its sign is the one continued from Im(theta) = 0.1, where the
    # tracker resolves: a flip would put the ratio near -1.
    m = Sl2IntMatrix(*entries)
    g = GaussianState(1.0, theta, 0.0, 0.0, 1.0 / 16.0)
    out = propagate_n(m, g, 1)
    assert abs(out.norm - g.norm) < 1e-12 * g.norm
    ref = _branch_sqrt_inv(hamiltonian_from_matrix(m), 1.0, complex(theta.real, 0.1))
    assert (out.amplitude / ref).real > 0


def test_propagation_samples_no_flow(cat, monkeypatch):
    def no_flow(*args):
        raise AssertionError("flow_coefficients called")

    monkeypatch.setattr(qcat.classical, "flow_coefficients", no_flow)
    g = wavepacket(0.3, 0.4, 1.0 / 16.0)
    propagate_n(cat, g, 8)
    propagate_n(Sl2IntMatrix(2, 3, 1, 2), g, 1)
    build_propagator_matrix(cat, 16)
