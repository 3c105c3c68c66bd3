from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import QuadratureNonConvergenceError, kernel_quadrature_oracle, overlap_quadrature, tanh_sinh
from qcat.classical import FlowCoefficients, spectral_data
from qcat.errors import ZeroACoefficientError
from qcat.metaplectic import gaussian_eval, propagate_n, wavepacket


def test_tanh_sinh_known_integrals():
    assert tanh_sinh(lambda x: x * x, 0.0, 1.0, tol=1e-12).real == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert tanh_sinh(lambda x: np.exp(-x * x), -8.0, 8.0, tol=1e-12).real == pytest.approx(
        math.sqrt(math.pi), abs=1e-12
    )
    # Oscillatory Gaussian: int exp(-x^2) cos(10 x) dx = sqrt(pi) e^{-25}.
    val = tanh_sinh(lambda x: np.exp(-x * x) * np.cos(10.0 * x), -8.0, 8.0, tol=1e-12)
    assert val.real == pytest.approx(math.sqrt(math.pi) * math.exp(-25.0), rel=1e-6)


def test_tanh_sinh_nonconvergence():
    with pytest.raises(QuadratureNonConvergenceError):
        tanh_sinh(lambda x: np.cos(300.0 * x), -1.0, 1.0, tol=1e-12, max_level=5)


def test_kernel_oracle_identity():
    h = 1.0 / 8.0
    g = wavepacket(0.0, 0.0, h)
    ident = FlowCoefficients(t=0.0, a=1.0, b=0.0, c=0.0, d=0.0 + 1.0)
    for x in (-0.4, 0.0, 0.7):
        assert abs(kernel_quadrature_oracle(ident, g, x, h) - gaussian_eval(g, x)) < 1e-9


def test_kernel_oracle_dilation(cat):
    # lambda^(-1/2) f(lambda^(-1) x): the scaling solution of the dilation flow.
    h = 1.0 / 8.0
    lam = spectral_data(cat).lam
    g = wavepacket(0.0, 0.0, h)
    dil = FlowCoefficients(t=1.0, a=lam, b=0.0, c=0.0, d=1.0 / lam)
    for x in (0.0, 0.5, -1.2):
        want = lam ** -0.5 * gaussian_eval(g, x / lam)
        assert abs(kernel_quadrature_oracle(dil, g, x, h) - want) < 1e-9


def test_kernel_oracle_consistency_with_closed_form(cat):
    h = 1.0 / 8.0
    g = wavepacket(0.0, 0.0, h)
    gp = propagate_n(cat, g, 1)
    for x in (0.0, 0.35, -0.9):
        o = kernel_quadrature_oracle(cat, g, x, h)
        c = gaussian_eval(gp, x)
        assert abs(o - c) <= 1e-8 * max(abs(c), 1.0)


def test_kernel_oracle_zero_a():
    with pytest.raises(ZeroACoefficientError):
        kernel_quadrature_oracle(
            FlowCoefficients(t=1.0, a=0.0, b=-1.0, c=1.0, d=0.0),
            wavepacket(0.0, 0.0, 0.5), 0.0, 0.5,
        )


def test_overlap_quadrature_far_momentum():
    # Highly oscillatory overlap: the refinement guard must not alias.
    h = 0.5
    g0 = wavepacket(0.0, 0.0, h)
    g6 = wavepacket(0.0, 6.0, h)
    val = overlap_quadrature(g6, g0, h)
    assert abs(val) < 1e-12
