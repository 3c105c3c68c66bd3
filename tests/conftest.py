from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qcat
from qcat import cli
from qcat.classical import QuadraticHamiltonian, Sl2IntMatrix, flow_coefficients
from qcat.errors import NumericalToleranceError

# The directory holding the qcat package this test process imported:
# `src/` for a source checkout, site-packages for an install.
QCAT_ROOT = Path(qcat.__file__).resolve().parents[1]


def run_python(args, cwd=None, timeout=None) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh interpreter on the same qcat the tests
    import.  Only tests whose subject is a process use it: two runs that must
    agree across processes, the exit path of `python -m qcat.cli`, a run
    under an address-space limit or a BLAS environment, what an import
    loads, and runs that need a timeout.

    QCAT_ROOT goes first on the child's PYTHONPATH, ahead of any inherited
    entries, so a relative `PYTHONPATH=src` still finds the package when
    `cwd` is a scratch directory.  A child still running after ``timeout``
    seconds is killed and raises ``subprocess.TimeoutExpired``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(QCAT_ROOT), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=timeout)


def run_cli(args) -> subprocess.CompletedProcess:
    """Run ``qcat.cli.main(args)`` in this interpreter and return what
    `python -m qcat.cli *args` would: its exit code (argparse's usage errors
    leave by ``SystemExit``) and the stdout and stderr it wrote, with each
    warning it raised written to stderr as the interpreter would print it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    return subprocess.CompletedProcess(["qcat", *args], code, out.getvalue(), err.getvalue())


class TracedPeak:
    """``with TracedPeak() as peak:`` sets ``peak.mib`` to the tracemalloc
    peak of the block, in MiB above what was traced on entry; numpy reports
    its array buffers, so this holds on every platform.  Tracing on before
    the block (``-X tracemalloc``) stays on."""

    def __enter__(self) -> TracedPeak:
        self._was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc) -> None:
        self.mib = (tracemalloc.get_traced_memory()[1] - self._base) / 2 ** 20
        if not self._was_tracing:
            tracemalloc.stop()


@pytest.fixture
def cat():
    return Sl2IntMatrix(2, 1, 1, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# Every hyperbolic matrix with entries in [-3, 3]: either sign of the trace, any a.
_HYPERBOLIC = [Sl2IntMatrix(*e) for e in itertools.product(range(-3, 4), repeat=4)
               if e[0] * e[3] - e[1] * e[2] == 1 and abs(e[0] + e[3]) > 2]


def random_hyperbolic(rng) -> Sl2IntMatrix:
    """Random hyperbolic matrix with entries in [-3, 3], for propagation tests."""
    return _HYPERBOLIC[int(rng.integers(len(_HYPERBOLIC)))]


def random_shear_product(rng) -> Sl2IntMatrix:
    """Random trace > 2 matrix with a > 0 as a product of positive shears,
    for the tests whose oracle needs a flow or a > 0."""
    a = int(rng.integers(1, 4))
    c = int(rng.integers(1, 4))
    return Sl2IntMatrix(1, a, 0, 1) @ Sl2IntMatrix(1, 0, c, 1)


def random_gaussian_state(rng, h: float):
    from qcat.metaplectic import GaussianState

    theta = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))
    amp = complex(rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0))
    return GaussianState(amp, theta, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), h)


def _flow_grid(h: QuadraticHamiltonian, t: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_s, b_s) of the flow at s = 0, t/steps, ..., t."""
    fcs = [flow_coefficients(h, float(s)) for s in np.linspace(0.0, t, steps + 1)]
    return np.array([fc.a for fc in fcs]), np.array([fc.b for fc in fcs])


def _branch_sqrt_inv(h: QuadraticHamiltonian, t: float, theta: complex,
                     grids: dict | None = None) -> complex:
    """(a_t + b_t*theta)^(-1/2) with the branch continued from 1 at t = 0.

    Oracle for the principal root of ``metaplectic.propagate_n``.  The path
    w(s) = a_s + b_s*theta never vanishes (Im theta > 0), so the
    argument can be unwound by sampling; the step count is doubled until the
    largest per-step rotation is below pi/2.  The s-grid does not depend on
    theta: ``grids`` keeps the flow grid of this (h, t) by step count, so a
    caller that tracks many shapes through one flow passes one dict.

    The check can alias: a step that turns w by more than 2*pi may wrap
    below pi/2.  For the harmonic oscillator at t = 2e4 it stops after 16
    steps of 1250 rad each.  It is sound for the hyperbolic flows at t = 1
    that the tests give it.

    Raises:
        NumericalToleranceError: if 4096 steps still leave a per-step
            rotation of pi/2 or more, so the branch is not resolved.
    """
    grids = {} if grids is None else grids
    steps = 16
    while True:
        if steps not in grids:
            grids[steps] = _flow_grid(h, t, steps)
        a_s, b_s = grids[steps]
        w = a_s + b_s * theta
        dargs = np.angle(w[1:] / w[:-1])
        if np.max(np.abs(dargs)) < 0.5 * math.pi:
            break
        if steps >= 4096:
            raise NumericalToleranceError(
                f"metaplectic branch unresolved after {steps} steps: "
                f"a step rotates by {np.max(np.abs(dargs)):.3f} rad"
            )
        steps *= 2
    total_arg = float(np.sum(dargs))
    wt = w[-1]
    return complex(np.exp(-0.5 * (math.log(abs(wt)) + 1j * total_arg)))


# Shape of the comb states, theta = i * _COMB_WIDTH * N (see comb_state).
_COMB_WIDTH = 20.0


def comb_state(N: int, k: int):
    """Unit-norm near-delta Gaussian at (k/N, 0) with theta = i * _COMB_WIDTH * N.

    Symmetrizing these reproduces the Fourier-comb basis of the torus space:
    the periodized samples are supported on the single grid point r = k to
    machine precision, so the coefficient vectors are flat-modulus DFT
    columns.
    """
    from qcat.errors import OddNError
    from qcat.metaplectic import GaussianState

    if N <= 0 or N % 2 != 0:
        raise OddNError(f"N must be a positive even integer, got {N}")
    h = 1.0 / N
    tau = _COMB_WIDTH * N
    return GaussianState(
        amplitude=complex((2.0 * tau / h) ** 0.25), theta=1j * tau, q=k / N, p=0.0, h=h
    )


def comb_propagator_matrix(m: Sl2IntMatrix, N: int) -> np.ndarray:
    """Oracle for ``torus.build_propagator_matrix`` by comb inversion.

    If D holds the coefficients of the comb states and D' those of their
    propagated images, U = D' D^(-1) is the unique linear map with
    U d(g) = d(U g) on the family's span, which is the whole space.  It
    costs N propagations and a dense inverse, O(N^3).
    """
    from oracles import torus_coefficients
    from qcat.errors import OddNError
    from qcat.metaplectic import propagate_n

    if N <= 0 or N % 2 != 0:
        raise OddNError(f"N must be a positive even integer, got {N}")
    basis = np.empty((N, N), dtype=complex)
    image = np.empty((N, N), dtype=complex)
    for k in range(N):
        e_k = comb_state(N, k)
        basis[:, k] = torus_coefficients(e_k).coeffs
        image[:, k] = torus_coefficients(propagate_n(m, e_k, 1)).coeffs
    return image @ np.linalg.inv(basis)


def dense_comb_gram_min_eig(N: int) -> float:
    """Oracle for the closed form of the unitarity table's ``gram_min_eig``:
    the N comb states built one at a time, their unit-diagonal Gram matrix
    through the Parseval form of the pairing, and a dense Hermitian
    eigensolve, O(N^3)."""
    from oracles import torus_coefficients

    basis = np.empty((N, N), dtype=complex)
    for k in range(N):
        basis[:, k] = torus_coefficients(comb_state(N, k)).coeffs
    gram = basis.conj().T @ basis
    norm = np.sqrt(np.real(np.diag(gram)))
    gram_n = gram / np.outer(norm, norm)
    return float(np.min(np.linalg.eigvalsh((gram_n + gram_n.conj().T) / 2.0)))


def dense_at_box_points(dense, corner, k1, k2):
    """The values of a dense box with corner ``corner`` at the points (k1, k2)
    of ``OverlapForm.box``, after checking that every nonzero value of the
    box is at one of them."""
    i1, i2 = k1 - corner[0], k2 - corner[1]
    kept = np.zeros(dense.shape, dtype=bool)
    kept[i1, i2] = True
    assert not np.any(dense[~kept])
    return dense[i1, i2]


def floor_frac_turns(turns) -> np.ndarray:
    """Oracle of ``metaplectic.frac_turns``: t - floor(t) in long double
    (libm's ``floorl``), then float64."""
    t = np.asarray(turns, dtype=np.longdouble)
    return np.asarray(t - np.floor(t), dtype=np.float64)


def mod_circle_distance(x, s0):
    """Oracle of ``lagrangian.circle_distance``: numpy's float mod of x - s0,
    then the representative in (-1/2, 1/2]."""
    u = np.mod(np.asarray(x, dtype=float) - s0, 1.0)
    return np.where(u > 0.5, u - 1.0, u)


def orbit_turns(alpha: float, N: int, k: np.ndarray, x: float) -> np.ndarray:
    """The second coordinate y_k of T^k (x, 0) for the integers k under the
    skew map of (alpha, N), as ``birkhoff._live_blocks`` forms it:
    y_k = k^2 (N/2) alpha + k N x in long double, reduced mod 1 and rounded
    to float64."""
    k_l = np.asarray(k, dtype=np.longdouble)
    y_turns = k_l * k_l * (N // 2) * np.longdouble(alpha) + k_l * N * np.longdouble(x)
    return np.asarray(y_turns - np.floor(y_turns), dtype=float)


def scan_radius(peak: float, mu: float, target: float, tail_bound) -> int:
    """Oracle of ``torus.certified_radius``: the radius found by stepping
    r = 1, 2, ... until peak * tail_bound(r, mu) <= target."""
    radius = 1
    while peak * tail_bound(radius, mu) > target:
        radius += 1
    return radius
