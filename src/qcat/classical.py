"""Classical side of the model: SL(2,Z) torus automorphisms, the spectral
data of every hyperbolic one, the Ehrenfest time, the validity threshold of
the matrix-element theorem, and the seeded torus points the experiments
draw.

Propagation uses only the integer entries of the matrix (see
:func:`qcat.metaplectic.propagate_n`), so the package builds no
Hamiltonian and serves trace < -2 (no real logarithm) too; the Hamiltonian
whose time-1 flow is a matrix is a test oracle (``tests/oracles.py``).  The
flow of a quadratic Hamiltonian (:class:`QuadraticHamiltonian`,
:class:`FlowCoefficients`, :func:`flow_coefficients`) stays in the package
because the benchmark's span tracer (``perfbench/spans.py``) resolves
``classical.flow_coefficients`` by name and counts its calls, which is how a
run shows that no flow is sampled.

All values are immutable tuples (NamedTuple records) and all operations are
pure functions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import NonHyperbolicError, NonPositiveHError, NumericalToleranceError

__all__ = [
    "Sl2IntMatrix",
    "QuadraticHamiltonian",
    "FlowCoefficients",
    "SpectralData",
    "TorusPoint",
    "cat_apply",
    "seeded_points",
    "spectral_data",
    "flow_coefficients",
    "ehrenfest_time",
    "validity_threshold",
]


class Sl2IntMatrix(namedtuple("Sl2IntMatrix", "a b c d")):
    """Integer 2x2 matrix with determinant one (``_replace`` and ``_make`` skip the checks)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "Sl2IntMatrix":
        for name, v in zip("abcd", (a, b, c, d)):
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"entry {name} must be an integer, got {v!r}")
        det = a * d - b * c
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")
        return super().__new__(cls, a, b, c, d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def is_identity(self) -> bool:
        return self == (1, 0, 0, 1)

    def __matmul__(self, other: "Sl2IntMatrix") -> "Sl2IntMatrix":
        return Sl2IntMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def power(self, n: int) -> "Sl2IntMatrix":
        """Exact integer power A^n, n >= 0, by repeated squaring.

        Raises:
            ValueError: if n is negative.
        """
        if n < 0:
            raise ValueError(f"power must be nonnegative, got {n}")
        result = Sl2IntMatrix(1, 0, 0, 1)
        base = self
        k = n
        while k > 0:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def apply(self, x: float, p: float) -> tuple[float, float]:
        """Linear action on the plane (no reduction mod 1)."""
        return (self.a * x + self.b * p, self.c * x + self.d * p)


class QuadraticHamiltonian(NamedTuple):
    """H(x, xi) = alpha*x^2/2 + gamma*x*xi + beta*xi^2/2.

    Its symplectic gradient is the linear field with traceless generator
    m = [[gamma, beta], [-alpha, -gamma]].
    """

    alpha: float
    beta: float
    gamma: float


class FlowCoefficients(NamedTuple):
    """Entries of exp(t*m) for a quadratic Hamiltonian generator m."""

    t: float
    a: float
    b: float
    c: float
    d: float


class SpectralData(NamedTuple):
    """Expanding eigenvalue and unstable-direction angle of a hyperbolic matrix.

    The unstable eigenvector is normalized to (cos(theta), sin(theta)) with
    cos(theta) > 0, so theta is the principal-branch angle in (-pi/2, pi/2);
    for the standard cat map tan(theta) = lambda - 2 lies in (0, 1).
    """

    lam: float
    theta: float


class TorusPoint(namedtuple("TorusPoint", "q p")):
    """Point of the torus T^2 with coordinates reduced to [0, 1) (``_replace``
    and ``_make`` skip the reduction)."""

    __slots__ = ()

    def __new__(cls, q: float, p: float) -> "TorusPoint":
        q, p = q % 1.0, p % 1.0
        # x % 1.0 is 1.0 for -2^-54 <= x < 0, where 1 + x rounds to 1
        # (-1e-20 % 1.0 == 1.0); that is the point 0.
        return super().__new__(cls, 0.0 if q == 1.0 else q, 0.0 if p == 1.0 else p)


def cat_apply(m: Sl2IntMatrix, pt: TorusPoint) -> TorusPoint:
    """Apply the toral automorphism induced by ``m`` to ``pt``."""
    return TorusPoint(*m.apply(pt.q, pt.p))


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx) and of
# its PCG64 multiplier (numpy/random/src/pcg64/pcg64.h).
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64 state and increment of ``np.random.default_rng(seed)``:
    SeedSequence mixes the 32-bit words of ``seed`` into a 4-word pool,
    ``generate_state(4, uint64)`` draws the seed and stream words from it,
    and PCG64 seeds its generator with them."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, state32 = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state32.append(value ^ value >> 16)
    w0, w1, w2, w3 = (state32[2 * k] | state32[2 * k + 1] << 32 for k in range(4))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = (inc + (w0 << 64 | w1)) & _MASK128  # srandom: step from 0, add the seed
    return (state * _PCG_MULT + inc) & _MASK128, inc


def seeded_points(seed: int, count: int) -> list[TorusPoint]:
    """``count`` points whose coordinates (q, then p) are the first
    2 * count draws of ``np.random.default_rng(seed).uniform()``,
    reproduced bit for bit in integer arithmetic: PCG64's XSL-RR output of
    each step, then (x >> 11) * 2**-53.  The package's seeded batches come
    from here, so a run never loads ``numpy.random``.

    Raises:
        ValueError: if ``seed`` is negative or not an integer.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    state, inc = _pcg64_seed(int(seed))
    draws = []
    for _ in range(2 * count):
        state = (state * _PCG_MULT + inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        word = ((word >> rot) | (word << (64 - rot))) & _MASK64
        draws.append((word >> 11) * 2.0 ** -53)
    return [TorusPoint(draws[2 * i], draws[2 * i + 1]) for i in range(count)]


def spectral_data(m: Sl2IntMatrix) -> SpectralData:
    """Expansion rate lam > 1 and unstable angle of a hyperbolic matrix:
    lam = |lam_s| for the expanding eigenvalue lam_s = (tr + sign(tr)
    sqrt(tr^2 - 4))/2.  Each step for -m negates the step for m, so m and
    -m give the same bits.

    Raises:
        NonHyperbolicError: if |trace| <= 2.
        NumericalToleranceError: if tr^2 leaves the float range (|trace|
            above about 1.3e154).
    """
    tr = m.trace
    if abs(tr) <= 2:
        raise NonHyperbolicError(f"|trace| must exceed 2, got trace {tr}")
    try:
        lam_s = 0.5 * (tr + math.copysign(math.sqrt(tr * tr - 4.0), tr))
    except OverflowError:
        raise NumericalToleranceError(
            f"the spectral data of a matrix of trace {float(tr):.4g} leaves the float range"
        ) from None
    # Unstable eigenvector (b, lam_s - a); b != 0 because b = 0 forces trace +-2.
    vx, vy = float(m.b), lam_s - m.a
    if vx < 0:
        vx, vy = -vx, -vy
    return SpectralData(lam=abs(lam_s), theta=math.atan2(vy, vx))


def flow_coefficients(h: QuadraticHamiltonian, t: float) -> FlowCoefficients:
    """exp(t*m) in closed form for the traceless generator m.

    With mu^2 = gamma^2 - alpha*beta the exponential is
    cosh(mu t) I + sinh(mu t)/mu * m (hyperbolic/shear/elliptic according to
    the sign of mu^2, with the obvious limits).  No experiment calls it;
    the module docstring says why it stays.
    """
    al, be, ga = h.alpha, h.beta, h.gamma
    mu2 = ga * ga - al * be
    if mu2 > 1e-300:
        mu = math.sqrt(mu2)
        ch, sh = math.cosh(mu * t), math.sinh(mu * t) / mu
    elif mu2 < -1e-300:
        om = math.sqrt(-mu2)
        ch, sh = math.cos(om * t), (math.sin(om * t) / om if om != 0 else t)
    else:
        ch, sh = 1.0, t
    return FlowCoefficients(
        t=t,
        a=ch + sh * ga,
        b=sh * be,
        c=-sh * al,
        d=ch - sh * ga,
    )


def ehrenfest_time(h: float, lam: float) -> float:
    """t_E(h) = |log h| / (2 log lam), the wave-packet breakdown time scale."""
    if h <= 0.0:
        raise NonPositiveHError(f"h must be positive, got {h}")
    if lam <= 1.0:
        raise ValueError(f"lam must exceed 1, got {lam}")
    return abs(math.log(h)) / (2.0 * math.log(lam))


def validity_threshold(h: float, lam: float) -> float:
    """|log h| / (3 log lam), the least time n at which the theorem's
    prediction is claimed; ``theorem_rhs`` refuses earlier times and the
    theorem table flags them."""
    return abs(math.log(h)) / (3.0 * math.log(lam))
