"""Classical side of the model: SL(2,Z) torus automorphisms, their hyperbolic
spectral data, quadratic Hamiltonians generating them, the Ehrenfest time,
the validity threshold of the matrix-element theorem, and the seeded torus
points the experiments draw when no points are configured.

No experiment samples a flow: propagation uses only the integer entries of
the matrix (see :func:`qcat.metaplectic.propagate_n`).  The Hamiltonian and
its flow (:class:`QuadraticHamiltonian`, :func:`hamiltonian_from_matrix`,
:class:`FlowCoefficients`, :func:`flow_coefficients`) stay in the package
because the benchmark's span tracer (``perfbench/spans.py``) resolves
``classical.flow_coefficients`` by name and counts its calls, which is how a
run shows that no flow is sampled; the test oracles of the metaplectic
branch and the Schroedinger residual use them too.

All values are immutable and all operations are pure functions, so everything
here is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeSpectrumError, NonHyperbolicError, NonPositiveHError

__all__ = [
    "Sl2IntMatrix",
    "QuadraticHamiltonian",
    "FlowCoefficients",
    "SpectralData",
    "TorusPoint",
    "cat_apply",
    "seeded_points",
    "spectral_data",
    "hamiltonian_from_matrix",
    "flow_coefficients",
    "ehrenfest_time",
    "validity_threshold",
]


@dataclass(frozen=True)
class Sl2IntMatrix:
    """Integer 2x2 matrix with determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"entry {name} must be an integer, got {v!r}")
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def __matmul__(self, other: "Sl2IntMatrix") -> "Sl2IntMatrix":
        return Sl2IntMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def power(self, n: int) -> "Sl2IntMatrix":
        """Exact integer power A^n (n may be negative) by repeated squaring."""
        if n < 0:
            return self.inverse().power(-n)
        result = Sl2IntMatrix(1, 0, 0, 1)
        base = self
        k = n
        while k > 0:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def inverse(self) -> "Sl2IntMatrix":
        return Sl2IntMatrix(self.d, -self.b, -self.c, self.a)

    def apply(self, x: float, p: float) -> tuple[float, float]:
        """Linear action on the plane (no reduction mod 1)."""
        return (self.a * x + self.b * p, self.c * x + self.d * p)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H(x, xi) = alpha*x^2/2 + gamma*x*xi + beta*xi^2/2.

    Its symplectic gradient is the linear field with traceless generator
    m = [[gamma, beta], [-alpha, -gamma]].
    """

    alpha: float
    beta: float
    gamma: float

    def generator(self) -> np.ndarray:
        return np.array([[self.gamma, self.beta], [-self.alpha, -self.gamma]])


@dataclass(frozen=True)
class FlowCoefficients:
    """Entries of exp(t*m) for a quadratic Hamiltonian generator m."""

    t: float
    a: float
    b: float
    c: float
    d: float

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


@dataclass(frozen=True)
class SpectralData:
    """Expanding eigenvalue and unstable-direction angle of a hyperbolic matrix.

    The unstable eigenvector is normalized to (cos(theta), sin(theta)) with
    cos(theta) > 0, so theta is the principal-branch angle in (-pi/2, pi/2);
    for the standard cat map tan(theta) = lambda - 2 lies in (0, 1).
    """

    lam: float
    theta: float

    @property
    def tan_theta(self) -> float:
        return math.tan(self.theta)


@dataclass(frozen=True)
class TorusPoint:
    """Point of the torus T^2 with coordinates reduced to [0, 1)."""

    q: float
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", self.q % 1.0)
        object.__setattr__(self, "p", self.p % 1.0)


def cat_apply(m: Sl2IntMatrix, pt: TorusPoint) -> TorusPoint:
    """Apply the toral automorphism induced by ``m`` to ``pt``."""
    x, p = m.apply(pt.q, pt.p)
    return TorusPoint(x % 1.0, p % 1.0)


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
    """Expanding eigenvalue > 1 and unstable angle of a trace > 2 matrix.

    Raises:
        NonHyperbolicError: if |trace| <= 2.
        NegativeSpectrumError: if trace < -2 (negative eigenvalues; the real
            logarithm of the flow does not exist, out of scope).
    """
    tr = m.trace
    if abs(tr) <= 2:
        raise NonHyperbolicError(f"|trace| must exceed 2, got trace {tr}")
    if tr < -2:
        raise NegativeSpectrumError(f"trace {tr} < -2: eigenvalues are negative")
    lam = 0.5 * (tr + math.sqrt(tr * tr - 4.0))
    # Unstable eigenvector: (b, lam - a), or (lam - d, c) when b = 0.
    if m.b != 0:
        vx, vy = float(m.b), lam - m.a
    else:
        vx, vy = lam - m.d, float(m.c)
    if vx < 0:
        vx, vy = -vx, -vy
    theta = math.atan2(vy, vx)
    return SpectralData(lam=lam, theta=theta)


def hamiltonian_from_matrix(m: Sl2IntMatrix) -> QuadraticHamiltonian:
    """Quadratic Hamiltonian whose time-1 flow is ``m``.

    The generator is the spectral logarithm log(lam) * (P+ - P-) written through
    the eigenprojectors, which for a 2x2 determinant-one matrix collapses to

        log(m) = log(lam) * (2*m - trace(m)*I) / (lam - 1/lam).

    Exact for hyperbolic matrices; no series truncation is involved.
    """
    sd = spectral_data(m)
    lam = sd.lam
    k = math.log(lam) / (lam - 1.0 / lam)
    tr = float(m.trace)
    g11 = k * (2.0 * m.a - tr)
    g12 = k * (2.0 * m.b)
    g21 = k * (2.0 * m.c)
    return QuadraticHamiltonian(alpha=-g21, beta=g12, gamma=g11)


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
