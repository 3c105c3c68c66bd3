from __future__ import annotations

import math
import random

import numpy as np
import pytest

from oracles import NegativeSpectrumError, hamiltonian_from_matrix
from qcat.classical import (
    Sl2IntMatrix,
    TorusPoint,
    cat_apply,
    ehrenfest_time,
    flow_coefficients,
    seeded_points,
    spectral_data,
)
from qcat.errors import NonHyperbolicError, NonPositiveHError, NumericalToleranceError
from qcat.lagrangian import damping_coefficient


def expm2_oracle(m: np.ndarray, squarings: int = 10) -> np.ndarray:
    """Scaling-and-squaring matrix exponential, independent of the closed form.

    Few squarings (rounding doubles per squaring) with a long series.
    """
    a = np.asarray(m, dtype=float) / 2.0 ** squarings
    total = np.eye(2)
    term = np.eye(2)
    for k in range(1, 30):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def _array(m) -> np.ndarray:
    """The 2x2 float array of a record with entries a, b, c, d."""
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=float)


def _generator(ham) -> np.ndarray:
    """The traceless generator [[gamma, beta], [-alpha, -gamma]] of a quadratic Hamiltonian."""
    return np.array([[ham.gamma, ham.beta], [-ham.alpha, -ham.gamma]])


def test_sl2_validation():
    with pytest.raises(ValueError):
        Sl2IntMatrix(2, 0, 0, 1)
    with pytest.raises(ValueError):
        Sl2IntMatrix(1.0, 0, 0, 1)  # type: ignore[arg-type]


def test_cat_apply_examples(cat):
    assert cat_apply(cat, TorusPoint(0.0, 0.0)) == TorusPoint(0.0, 0.0)
    out = cat_apply(cat, TorusPoint(0.3, 0.4))
    assert out.q == pytest.approx(0.0, abs=1e-12)
    assert out.p == pytest.approx(0.7, abs=1e-12)
    out = cat_apply(cat, TorusPoint(0.5, 0.5))
    assert (out.q, out.p) == (0.5, 0.0)


def test_cat_apply_permutes_rational_grid(cat):
    k = 5
    grid = {(i, j) for i in range(k) for j in range(k)}
    image = set()
    for i, j in grid:
        out = cat_apply(cat, TorusPoint(i / k, j / k))
        image.add((round(out.q * k), round(out.p * k)))
    assert image == grid


def test_spectral_data_oracles(cat):
    sd = spectral_data(cat)
    # Expanding root of x^2 - 3x + 1 by the quadratic formula.
    lam_oracle = (3.0 + math.sqrt(5.0)) / 2.0
    assert sd.lam == pytest.approx(lam_oracle, abs=1e-14)
    # Unstable slope solves (M - lam I) v = 0 with v = (1, slope).
    slope_oracle = lam_oracle - 2.0
    assert math.tan(sd.theta) == pytest.approx(slope_oracle, abs=1e-14)
    # Eigenvector residual.
    v = np.array([math.cos(sd.theta), math.sin(sd.theta)])
    assert np.max(np.abs(_array(cat) @ v - sd.lam * v)) < 1e-12
    # cos^2 lam + sin^2 / lam reproduces the matrix entry a = 2.
    assert math.cos(sd.theta) ** 2 * sd.lam + math.sin(sd.theta) ** 2 / sd.lam == pytest.approx(
        2.0, abs=1e-12
    )
    assert sd.lam * (1.0 / sd.lam) == pytest.approx(1.0, abs=1e-14)


def test_spectral_identities_vs_matrix_powers(cat):
    sd = spectral_data(cat)
    c, s = math.cos(sd.theta), math.sin(sd.theta)
    for n in range(1, 13):
        mn = cat.power(n)
        a_pred = c * c * sd.lam ** n + s * s * sd.lam ** -n
        b_pred = c * s * (sd.lam ** n - sd.lam ** -n)
        assert abs(a_pred - mn.a) < 1e-9 * max(1.0, mn.a)
        assert abs(b_pred - mn.b) < 1e-9 * max(1.0, abs(mn.b))
        assert mn.b == mn.c


def test_power_refuses_negative_exponent(cat):
    # No caller takes a negative power; one raises rather than returning I.
    assert cat.power(0) == Sl2IntMatrix(1, 0, 0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        cat.power(-1)


def test_spectral_errors():
    with pytest.raises(NonHyperbolicError):
        spectral_data(Sl2IntMatrix(1, 0, 0, 1))
    with pytest.raises(NonHyperbolicError):
        spectral_data(Sl2IntMatrix(1, 1, 0, 1))
    # tr^2 past the float range, for either sign of the trace.
    k = 10 ** 200
    for m in (Sl2IntMatrix(k + 1, k, 1, 1), Sl2IntMatrix(-k - 1, -k, -1, -1)):
        with pytest.raises(NumericalToleranceError, match="float range"):
            spectral_data(m)
    # Trace < -2: -M has the spectral data and damping of M, bit for bit,
    # but no real logarithm, so no Hamiltonian.
    for e in ((2, 1, 1, 1), (3, 1, 2, 1), (2, 3, 1, 2), (0, 1, -1, 3), (3, -1, -2, 1)):
        m = Sl2IntMatrix(*e)
        neg = Sl2IntMatrix(*(-v for v in e))
        assert spectral_data(neg) == spectral_data(m)
        assert damping_coefficient(neg) == damping_coefficient(m)
        hamiltonian_from_matrix(m)
        with pytest.raises(NegativeSpectrumError):
            hamiltonian_from_matrix(neg)


def test_hamiltonian_exponentiates_to_matrix(cat):
    ham = hamiltonian_from_matrix(cat)
    assert _generator(ham).trace() == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(expm2_oracle(_generator(ham)) - _array(cat))) < 1e-10
    # Pure dilation generator: gamma = log(lam), alpha = beta = 0.
    sd = spectral_data(cat)
    from qcat.classical import QuadraticHamiltonian

    diag = flow_coefficients(QuadraticHamiltonian(0.0, 0.0, math.log(sd.lam)), 1.0)
    assert diag.a == pytest.approx(sd.lam, rel=1e-14)
    assert diag.d == pytest.approx(1.0 / sd.lam, rel=1e-14)
    assert diag.b == diag.c == 0.0


def test_hamiltonian_rejects_identity():
    with pytest.raises(NonHyperbolicError):
        hamiltonian_from_matrix(Sl2IntMatrix(1, 0, 0, 1))


def test_flow_examples(cat):
    ham = hamiltonian_from_matrix(cat)
    f0 = flow_coefficients(ham, 0.0)
    assert (f0.a, f0.b, f0.c, f0.d) == (1.0, 0.0, 0.0, 1.0)
    f1 = flow_coefficients(ham, 1.0)
    assert np.max(np.abs(_array(f1) - _array(cat))) < 1e-12
    sd = spectral_data(cat)
    from qcat.classical import QuadraticHamiltonian

    f2 = flow_coefficients(QuadraticHamiltonian(0.0, 0.0, math.log(sd.lam)), 2.0)
    assert f2.a == pytest.approx(sd.lam ** 2, rel=1e-14)
    assert f2.d == pytest.approx(sd.lam ** -2, rel=1e-14)


def test_flow_determinant_and_group_law(cat):
    ham = hamiltonian_from_matrix(cat)
    for t in np.linspace(-3.0, 3.0, 25):
        assert abs(np.linalg.det(_array(flow_coefficients(ham, float(t)))) - 1.0) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(10):
        s, t = rng.uniform(-2, 2, size=2)
        fs = _array(flow_coefficients(ham, float(s)))
        ft = _array(flow_coefficients(ham, float(t)))
        fst = _array(flow_coefficients(ham, float(s + t)))
        assert np.max(np.abs(fs @ ft - fst)) < 1e-10


def test_flow_satisfies_generator_odes(cat):
    # Residuals of the four coefficient ODEs against centered differences.
    ham = hamiltonian_from_matrix(cat)
    step = 1e-5
    for t in (0.25, 0.8, 1.7):
        f_minus = _array(flow_coefficients(ham, t - step))
        f_plus = _array(flow_coefficients(ham, t + step))
        deriv = (f_plus - f_minus) / (2.0 * step)
        expected = _generator(ham) @ _array(flow_coefficients(ham, t))
        assert np.max(np.abs(deriv - expected)) < 1e-6


def test_ehrenfest_time(cat):
    sd = spectral_data(cat)
    # Independent numerical evaluation: ln(64) / (2 ln lam).
    assert ehrenfest_time(1.0 / 64.0, sd.lam) == pytest.approx(
        math.log(64.0) / (2.0 * math.log(sd.lam)), abs=1e-12
    )
    assert ehrenfest_time(1.0 / 64.0, sd.lam) == pytest.approx(2.1607, abs=5e-4)
    assert ehrenfest_time(1.0, sd.lam) == 0.0
    assert ehrenfest_time(math.exp(-2.0), math.e) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NonPositiveHError):
        ehrenfest_time(0.0, sd.lam)
    with pytest.raises(ValueError):
        ehrenfest_time(0.5, 1.0)


def test_torus_point_reduction():
    pt = TorusPoint(1.25, -0.25)
    assert (pt.q, pt.p) == (0.25, 0.75)
    # x % 1.0 rounds to 1.0 for -2^-54 <= x < 0; the point is 0, in [0, 1).
    assert TorusPoint(-1e-20, -5e-17) == (0.0, 0.0)
    assert TorusPoint(-2.0 ** -54, -0.0) == (0.0, 0.0)
    assert TorusPoint(-2.0 ** -53, 1.0) == (1.0 - 2.0 ** -53, 0.0)
    # cat_apply reduces the image once, through TorusPoint: (0, 1e-20) maps
    # to (-1e-20, 2e-20) before the reduction.
    assert cat_apply(Sl2IntMatrix(1, -1, -1, 2), TorusPoint(0.0, 1e-20)) == (0.0, 2e-20)


def test_seeded_points_match_numpy_stream():
    # Oracle: numpy's default_rng stream, 20 draws per seed.  The edge seeds
    # give 1, 2 and 3 entropy words; the random ones 8 to 64 bits.
    draw = random.Random(20240901)
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 70]
    seeds += [draw.getrandbits(draw.randint(8, 64)) for _ in range(2000)]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        expected = [rng.uniform() for _ in range(20)]
        got = [c for pt in seeded_points(seed, 10) for c in (pt.q, pt.p)]
        assert got == expected, seed
    assert seeded_points(np.uint64(7), 3) == seeded_points(7, 3)
    assert seeded_points(5, 0) == []


@pytest.mark.parametrize("seed", [-1, -(2 ** 70), 1.5, 2.0, "3", None])
def test_seeded_points_reject_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed"):
        seeded_points(seed, 2)
