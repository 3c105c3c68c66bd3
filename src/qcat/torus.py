"""The N-dimensional torus Hilbert space at h = 1/N (N even).

A Schwartz-class state g is projected to the torus by averaging over the
quantum translation lattice; the Hermitian pairing of two such projections is
the doubly infinite lattice sum

    <S(g), S(f)> = sum_{k in Z^2} <T_k g, f>_{L2},

every term of which is a closed-form Gaussian overlap.  Every Gaussian-overlap
sum of the package goes through one type, :class:`OverlapForm`: the overlap
pref * exp(E(y, w)) with E a complex quadratic in the moving center (y, w).
``envelope()`` bounds its modulus by a Gaussian around a decay center,
``box()`` takes the smallest radius whose discarded shells an explicit
error-function tail bounds, and ``terms()`` evaluates it.

Every truncated sum of the package (the lattice box, the band and Birkhoff
windows, the periodized samples and the Husimi window) takes the smallest
certified radius of :func:`certified_radius`, the one place that refuses a
window past its cap.

A box is never formed whole.  On each row of the box Re E is a concave
quadratic in w, so the columns where exp(Re E) can be nonzero in float64 are
one closed-form interval: the roots at a floor below the underflow of
``exp``, lowered by a bound on the rounding of Re E, plus one column on each
side.  ``box()`` returns just those lattice points, in row-major order, and
``terms()`` forms the long-double phases only where the modulus is nonzero.
Every term skipped is an exact 0.0 and every term kept has the bits of a
dense evaluation; only the order of the sum differs from a sum over the
whole box.  Past the Ehrenfest time the propagated packet is a thin ridge:
the box area grows like lambda^(2n) but its live terms like lambda^n, well
under 1% of the box, and the cost is O(r + live) for a box of radius r.

Because N is even all half-integer cocycle phases exp(-i*pi*k1*k2*N) are
exactly 1 and are dropped in integer arithmetic rather than evaluated in
floating point.

For N-point work there is an equivalent exact route (Poisson summation):
S(g) is determined by the N samples of the 1-periodization of g on the grid
r/N, the pairing is the discrete inner product (1/N) sum_r v_r conj(w_r),
and the Fourier coefficients are the inverse DFT of those samples.  The
package keeps only the samples (:func:`periodized_samples`, with N read from
the state's h); the Parseval pairing on the coefficients is a test oracle in
``tests/oracles.py``, checked there against the lattice route.  Husimi
frames take it one step further: unfolding the periodization turns each
grid row of pairings into one length-R FFT (see :func:`husimi`, which
returns the bare R x R density array), and the lattice route stays as their
test oracle.

The propagator matrix needs no states at all: on the samples the quantized
map is a chain of chirps e(x j^2 / 2N) and unitary DFTs, one FFT per column,
with a unit constant in closed form (see :func:`build_propagator_matrix`).
The comb inversion it replaces and the coherent state that pinned its unit
stay as test oracles in ``tests/conftest.py`` and ``tests/oracles.py``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .classical import Sl2IntMatrix, TorusPoint, spectral_data
from .errors import (
    MismatchedHError,
    NumericalToleranceError,
    OddNError,
    TruncationOverflowError,
)
from .metaplectic import GaussianState, cis_turns, gaussian_eval, propagate_n, wavepacket

__all__ = [
    "LatticeTruncation",
    "OverlapForm",
    "even_n_from_h",
    "periodized_samples",
    "overlap_form",
    "pair_symmetrized_detailed",
    "build_propagator_matrix",
    "matrix_element_exact",
    "husimi",
]

# Lattice pairing: certified tail relative to |g| |test|, and the term cap.
_PAIR_TAIL = 1e-13
_MAX_TERMS = 5_000_000
# Periodized samples: the images left out of a sample sum to at most this
# times |amplitude|; at most _MAX_SAMPLES points, the Husimi window's cap too,
# are formed in blocks of _SAMPLE_BLOCK (about 105 bytes of temporaries each).
_SAMPLE_TAIL = 1e-16
_MAX_SAMPLES = 1 << 24
_SAMPLE_BLOCK = 1 << 18
# exp(x) is exactly 0.0 in float64 for x < log(2^-1075) = -745.1332...
_EXP_FLOOR = -746.0
# The dense propagator: the largest N, a 256 MiB complex N x N matrix.
_MAX_DENSE_N = 4096


class LatticeTruncation(NamedTuple):
    """Radius actually summed and a rigorous bound on the discarded mass."""

    radius: int
    certified_tail: float


def even_n_from_h(h: float) -> int:
    """The even integer N with h = 1/N, validating both properties."""
    if h <= 0.0:
        raise OddNError(f"h must be positive with 1/h an even integer, got {h}")
    n = round(1.0 / h)
    if n <= 0 or abs(n * h - 1.0) > 1e-9 or n % 2 != 0:
        raise OddNError(f"1/h must be an even integer, got 1/h = {1.0 / h}")
    return n


def periodized_samples(g: GaussianState) -> np.ndarray:
    """v_r = sum_m g(r/N + m) for r = 0..N-1 with N = 1/g.h, each sum leaving
    out at most ``_SAMPLE_TAIL`` |A|: |g(x)| = |A| exp(-mu (x - q)^2 / 2) with
    mu = 2 pi Im(theta) / h, so :func:`certified_radius` on a line gives the
    half-width K, and the 2K + 1 periods |m - floor(q)| <= K hold every image
    with |r/N + m - q| <= K.

    Raises:
        OddNError: if 1/g.h is not an even integer.
        TruncationOverflowError: before forming any array, if those periods
            hold more than ``_MAX_SAMPLES`` samples.
    """
    N = even_n_from_h(g.h)
    amp = abs(g.amplitude)
    half = certified_radius(amp, 2.0 * math.pi * complex(g.theta).imag / g.h,
                            _SAMPLE_TAIL * amp, line_tail_bound, (_MAX_SAMPLES // N - 1) // 2)
    m_lo = math.floor(g.q) - half
    m_hi = math.floor(g.q) + half
    r = np.arange(N) / N
    step = max(1, _SAMPLE_BLOCK // N)
    total = np.zeros((0, N), dtype=complex)
    for lo in range(m_lo, m_hi + 1, step):
        x = r[None, :] + np.arange(lo, min(lo + step, m_hi + 1))[:, None]
        # The axis-0 sum adds rows in order, so prepending the running total
        # gives the bits of one sum over every period.
        total = np.sum(np.concatenate((total, gaussian_eval(g, x))), axis=0, keepdims=True)
    return total[0]


def shell_tail_bound(k: float, mu: float) -> float:
    """Upper bound on sum_{s > k} 8 s exp(-mu s^2 / 2) via integral comparison."""
    v = max(k, 0.0)
    return 8.0 * (
        math.exp(-0.5 * mu * v * v) / mu
        + math.sqrt(0.5 * math.pi / mu) * math.erfc(v * math.sqrt(0.5 * mu))
    )


def line_tail_bound(k: float, mu: float) -> float:
    """Upper bound on sum_{|m - c| > k} exp(-mu (m - c)^2 / 2) over integers m,
    for any real c: one term at the edge plus the integral, on each side."""
    return 2.0 * (
        math.exp(-0.5 * mu * k * k)
        + math.sqrt(0.5 * math.pi / mu) * math.erfc(k * math.sqrt(0.5 * mu))
    )


def certified_radius(peak: float, mu: float, target: float, tail_bound, cap: int) -> int:
    """Smallest radius r >= 1 with peak * tail_bound(r, mu) <= target.

    ``tail_bound`` is :func:`shell_tail_bound` for a square box and
    :func:`line_tail_bound` for a window on a line.  Both decrease in r, so
    double past the radius and then bisect.

    Raises:
        TruncationOverflowError: if mu is not positive (NaN included), if
            0.5 * mu underflows to 0, so that neither bound falls, or if the
            radius is above ``cap``, the largest the caller can form.
    """
    if not mu > 0.0:
        raise TruncationOverflowError(f"window curvature {mu} is not positive")
    if not 0.5 * mu > 0.0:
        raise TruncationOverflowError(f"window curvature {mu} underflows: 0.5 * mu is 0")
    lo, radius = 0, 1
    while peak * tail_bound(radius, mu) > target:
        lo, radius = radius, 2 * radius
    while radius - lo > 1:
        mid = (lo + radius) // 2
        if peak * tail_bound(mid, mu) > target:
            lo = mid
        else:
            radius = mid
    if radius > cap:
        raise TruncationOverflowError(f"certified radius {radius} is above the cap {cap}")
    return radius


def _quadratic(coeffs, y, w):
    """E_yy y^2 + E_ww w^2 + E_yw y w + E_y y + E_w w + E_c, in this order."""
    e_yy, e_ww, e_yw, e_y, e_w, e_c = coeffs
    return e_yy * y * y + e_ww * w * w + e_yw * y * w + e_y * y + e_w * w + e_c


class OverlapForm(NamedTuple):
    """A Gaussian overlap as a function of the center (y, w) of one packet:

        pref * exp(E(y, w)),
        E = E_yy y^2 + E_ww w^2 + E_yw y w + E_y y + E_w w + E_c,

    with ``coeffs`` = (E_yy, E_ww, E_yw, E_y, E_w, E_c) complex and Re E
    negative definite.  The lattice pairing (:func:`overlap_form`) and the
    band sums (:mod:`qcat.lagrangian`) are all built on this one type.
    """

    coeffs: tuple
    pref: complex

    def envelope(self) -> tuple[np.ndarray, float, float]:
        """(center, mu, peak) with |pref exp(E)| <= peak exp(-mu |(y, w) - center|^2 / 2):
        the maximizer of Re E, the smallest curvature of -Re E, and
        |pref| exp(max Re E), its exponent clamped at 700.

        Raises:
            NumericalToleranceError: if Re E is not negative definite.
        """
        real = [c.real for c in self.coeffs]
        e_yy, e_ww, e_yw, e_y, e_w, _ = real
        hess = np.array([[2.0 * e_yy, e_yw], [e_yw, 2.0 * e_ww]])
        eigs = np.linalg.eigvalsh(hess)
        if eigs[1] >= 0.0:
            raise NumericalToleranceError("overlap decay form is not negative definite")
        center = np.linalg.solve(hess, -np.array([e_y, e_w]))
        e_star = _quadratic(real, *center)
        return center, -eigs[1], abs(self.pref) * math.exp(min(e_star, 700.0))

    def box(self, y0: float, w0: float, target: float,
            max_terms: int) -> tuple[np.ndarray, np.ndarray, LatticeTruncation]:
        """The live lattice points (k1, k2) of the certified box of translates
        (y0 + k1, w0 + k2), with its truncation data.

        The box is centered on the decay center, with the smallest radius r
        whose discarded shells sum to at most ``target``
        (:func:`shell_tail_bound`).  Of its (2r+1)^2 points only those of
        :meth:`_row_columns` are returned: every point left out has
        exp(Re E) = 0.0 exactly in float64.  k1 and k2 are 1-D integer
        arrays of equal length in row-major order, k1 ascending and k2
        ascending within a row; a sum over them runs in that order.

        Raises:
            TruncationOverflowError: if the box has more than ``max_terms``
                terms.
        """
        center, mu, peak = self.envelope()
        radius = certified_radius(peak, mu, target, shell_tail_bound,
                                  (math.isqrt(max_terms) - 1) // 2)
        c1, c2 = round(center[0] - y0), round(center[1] - w0)
        rows = np.arange(c1 - radius, c1 + radius + 1)
        lo, hi = self._row_columns(y0 + rows, w0, c2 - radius, c2 + radius)
        counts = np.maximum(hi - lo + 1, 0)
        k1 = np.repeat(rows, counts)
        starts = np.cumsum(counts) - counts
        k2 = np.arange(k1.size) - np.repeat(starts - lo, counts)
        return k1, k2, LatticeTruncation(radius, float(peak * shell_tail_bound(radius, mu)))

    def _row_columns(self, y: np.ndarray, w0: float, k_lo: int,
                     k_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per row y, the columns lo..hi within [k_lo, k_hi] outside which
        exp(Re E(y, w0 + k)) underflows to 0.0; lo > hi for an empty row.

        On a row Re E = a w^2 + b w + c with a = Re E_ww < 0, so the points
        above the floor F form the interval between the roots of
        a w^2 + b w + c - F.  F is ``_EXP_FLOOR`` lowered by 64 eps (B^2/|a| + C),
        where B and C sum the moduli of the terms of b and of c - F.  That
        bounds both the rounding of Re E as :meth:`terms` evaluates it on
        the interval and the cancellation in the discriminant.  One column
        of slack on each side covers the rounding of the roots and of the
        centers w0 + k.
        """
        a_yy, a_ww, a_yw, a_y, a_w, a_c = (c.real for c in self.coeffs)
        b = a_yw * y + a_w
        c = (a_yy * y + a_y) * y + a_c
        size_b = abs(a_yw) * np.abs(y) + abs(a_w)
        size_c = (abs(a_yy) * np.abs(y) + abs(a_y)) * np.abs(y) + abs(a_c) - _EXP_FLOOR
        floor = _EXP_FLOOR - 64.0 * np.finfo(float).eps * (size_b * size_b / -a_ww + size_c)
        disc = b * b - 4.0 * a_ww * (c - floor)
        mid = -b / (2.0 * a_ww) - w0
        half = np.sqrt(np.maximum(disc, 0.0)) / (-2.0 * a_ww)
        lo = np.clip(np.ceil(mid - half) - 1, k_lo, k_hi + 1).astype(np.int64)
        hi = np.clip(np.floor(mid + half) + 1, k_lo - 1, k_hi).astype(np.int64)
        return lo, np.where(disc < 0.0, lo - 1, hi)

    def terms(self, y, w, turns=None) -> np.ndarray:
        """pref * [cis_turns(turns)] * exp(E(y, w)) on broadcast arrays of centers.

        ``turns`` is an optional extra phase in full turns, broadcast like the
        centers.  The modulus exp(Re E) is formed everywhere, the phases only
        where it is nonzero; the other entries stay exactly 0.  Re E and Im E
        are evaluated from the real and imaginary parts of the coefficients,
        which gives the same bits as the parts of the complex E because the
        centers are real.  Each entry depends only on its own center, so the
        points of :meth:`box` give the bits of a dense evaluation of the
        whole box at those points.
        """
        mod = np.exp(_quadratic([c.real for c in self.coeffs], y, w))
        out = np.zeros(mod.shape, dtype=complex)
        live = mod != 0
        y_live, w_live = (np.broadcast_to(a, mod.shape)[live] for a in (y, w))
        imag = _quadratic([c.imag for c in self.coeffs], y_live, w_live)
        pref = self.pref
        if turns is not None:
            # Named, not a temporary: numpy would reuse a large temporary in
            # place and swap the operands of this complex product, which can
            # move its last bit once more than 16384 terms are live.
            shift = cis_turns(np.broadcast_to(turns, mod.shape)[live])
            pref = pref * shift
        out[live] = pref * mod[live] * cis_turns(imag / (2.0 * math.pi))
        return out


def overlap_form(g: GaussianState, test: GaussianState) -> OverlapForm:
    """<g@(y,w), test> as an :class:`OverlapForm` in the translated center
    (y, w) of ``g``.

    ``test`` must be a plain packet (theta = i), an unpropagated
    :func:`wavepacket`, as in every production call; anything else raises
    ValueError.  The expanded form cancels large terms when both states are
    spread: for two packets propagated n = 8 steps it is off by 3.9e-2
    (N = 16) and 10.6 (N = 1024) relative against a 60-digit reference.
    """
    if complex(test.theta) != 1j:
        raise ValueError(f"test must be a plain wavepacket (theta = i), got theta {test.theta}")
    h = g.h
    th1 = complex(g.theta)
    th2c = np.conj(complex(test.theta))
    d = th1 - th2c
    z0 = th2c * test.q - test.p
    s = 1j * math.pi / h
    e_yy = s * (th1 - th1 * th1 / d)
    e_ww = s * (-1.0 / d)
    e_yw = s * (2.0 * th1 / d - 2.0)
    e_y = s * (2.0 * th1 * z0 / d)
    e_w = s * (-2.0 * z0 / d)
    e_c = s * (-z0 * z0 / d - th2c * test.q ** 2 + 2.0 * test.p * test.q)
    a2 = -s * d
    pref = g.amplitude * np.conj(test.amplitude) * np.sqrt(math.pi / a2)
    return OverlapForm((e_yy, e_ww, e_yw, e_y, e_w, e_c), complex(pref))


def pair_symmetrized_detailed(g: GaussianState,
                              test: GaussianState) -> tuple[complex, LatticeTruncation]:
    """Hermitian torus pairing of the two symmetrized states, with its
    certified truncation data.  The discarded shells sum to at most
    ``_PAIR_TAIL`` times |g| |test|.

    Raises:
        MismatchedHError / OddNError: via validation of the shared h = 1/N.
        TruncationOverflowError: if the certified radius needs more than
            ``_MAX_TERMS`` lattice terms.
    """
    if g.h != test.h:
        raise MismatchedHError(f"states have h={g.h} and h={test.h}")
    n_even = even_n_from_h(g.h)
    form = overlap_form(g, test)
    target = _PAIR_TAIL * max(g.norm * test.norm, 1e-300)
    k1, k2, truncation = form.box(g.q, g.p, target, _MAX_TERMS)
    # Translation phase of T_(k1,k2) g: exp(i*pi*k1*k2*N) * exp(2*i*pi*k2*q*N);
    # the first factor is exactly 1 because N is even.
    terms = form.terms(g.q + k1, g.p + k2, turns=k2 * (n_even * g.q))
    return complex(np.sum(terms)), truncation


def _shear_chain(m: Sl2IntMatrix) -> list[int]:
    """Shears x_0..x_k with M = L_(x_k) J ... L_(x_1) J L_(x_0).

    L_x = [[1, 0], [x, 1]] and J = [[0, 1], [-1, 0]].  Euclid on the top
    row peels M = M' J L_x with M' = [[b, bx - a], [d, dx - c]], where x is
    the nearest integer to a / b, so |bx - a| <= |b| / 2 and the chain has
    at most log2|b| + 4 factors.  The top row then reaches (+-1, 0), which
    ends the chain with M' = L_c or M' = -L_(-c) = J L_0 J L_(-c).  For
    b = 1 the chain is M = L_d J L_a.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    shears = []
    while b != 0:
        x = (2 * a + b) // (2 * b)
        shears.append(x)
        a, b, c, d = b, b * x - a, d, d * x - c
    return shears + ([c] if a == 1 else [-c, 0, 0])


def _chirp(x: int, N: int) -> np.ndarray:
    """e(x j^2 / 2N) for j = 0..N-1, with x j^2 reduced mod 2N in int64.

    N is even, so the chirp is N-periodic in j.
    """
    two_n = 2 * N
    j = np.arange(N, dtype=np.int64)
    return cis_turns((x % two_n) * (j * j % two_n) % two_n / two_n)


def _apply_chain(shears: list[int], samples: np.ndarray) -> np.ndarray:
    """The factor chain of :func:`_shear_chain` on the columns of ``samples``,
    in place: the complex N x K input is overwritten and returned.

    ``samples`` holds sample vectors v = fft(coeffs).  L_x is the chirp
    e(x j^2 / 2N) and J the unitary DFT, so the result is the torus
    propagator in the sample representation up to its unit constant.
    """
    N = samples.shape[0]
    samples *= _chirp(shears[0], N)[:, None]
    for x in shears[1:]:
        np.fft.fft(samples, axis=0, norm="ortho", out=samples)
        samples *= _chirp(x, N)[:, None]
    return samples


def build_propagator_matrix(m: Sl2IntMatrix, N: int) -> np.ndarray:
    """The induced N x N unitary in the Fourier-coefficient representation.

    In the sample representation v = fft(coeffs) a matrix with b = 1 acts as

        U_s = e^(-i pi/4) N^(-1/2) diag e(d j^2/2N) . fft . diag e(a k^2/2N),

    with e(t) = exp(2 i pi t), output index j and input index k.  A general
    matrix is a chain of such factors (:func:`_shear_chain`), applied by
    :func:`_apply_chain` to the columns of fft(eye(N)); the result is
    U = ifft . U_s . fft, each step in place on one N x N array.  Every
    chirp phase is an exact fraction of a turn; the cost is O(N^2 log N).

    The unit constant depends on M alone.  Each of the J DFTs of the chain
    is e^(i pi/4) times the principal lift of J, so the chain is
    e(J/8) (-1)^f times the principal lift of M, whose factor at theta = i
    is (a + b i)^(-1/2); f compares the two square-root branches there.

    Raises:
        OddNError: for odd N.
        TruncationOverflowError: before any array is formed, for N above
            ``_MAX_DENSE_N``.
        NonHyperbolicError: from ``spectral_data``, for a matrix other than
            the identity with |trace| <= 2.
    """
    if N <= 0 or N % 2 != 0:
        raise OddNError(f"N must be a positive even integer, got {N}")
    if N > _MAX_DENSE_N:
        raise TruncationOverflowError(
            f"the dense propagator at N = {N} is above the cap of N = {_MAX_DENSE_N}"
        )
    if not m.is_identity:
        spectral_data(m)  # raises for a matrix with |trace| <= 2
    shears = _shear_chain(m)
    # theta runs through the images of i; each DFT takes the root of theta.
    theta, turned = shears[0] + 1j, 0.0
    for x in shears[1:]:
        turned += cmath.phase(theta)
        theta = x - 1 / theta
    f = round((turned - cmath.phase(complex(m.a, m.b))) / (2.0 * math.pi))
    samples = np.eye(N, dtype=complex)
    _apply_chain(shears, np.fft.fft(samples, axis=0, out=samples))
    samples *= cis_turns((4 * f - (len(shears) - 1)) / 8)
    return np.fft.ifft(samples, axis=0, out=samples)


def matrix_element_exact(
    m: Sl2IntMatrix,
    n: int,
    src: TorusPoint,
    dst: TorusPoint,
    N: int,
) -> complex:
    """<U^n S(Phi_src), S(Phi_dst)> by exact propagation plus the lattice sum.

    The source packet is propagated n steps in closed form (its covariance
    grows like h lambda^(2n)); the truncation radius of the pairing then
    scales itself off that covariance through the certified decay form.
    """
    if N <= 0 or N % 2 != 0:
        raise OddNError(f"N must be a positive even integer, got {N}")
    h = 1.0 / N
    g = propagate_n(m, wavepacket(src.q, src.p, h), n)
    return pair_symmetrized_detailed(g, wavepacket(dst.q, dst.p, h))[0]


def husimi(g: GaussianState, resolution: int) -> np.ndarray:
    """The density N |<S(g), S(Phi_{q,p})>|^2 on the uniform R x R grid, as
    an R x R array whose entry [i, j] is the density at (q, p) = (i/R, j/R).

    Substituting l = r + N m in the Poisson (N-grid) form of the pairing
    gives a Gaussian-windowed sequence in l,

        <S(g), S(Phi_{q,p})> = (c_h/N) sum_l v_{l mod N}
                               exp(-pi (l - Nq)^2 / N) e(-p (l - Nq)),

    with v = periodized_samples(g), c_h = (2N)^(1/4) and e(t) =
    exp(2 i pi t).  At q = i/R, p = j/R the phase splits into e(-jl/R),
    exact in integer arithmetic, times the row phase e(Nij/R^2), which has
    modulus 1 and drops out of the density.  Each row is therefore one
    length-R FFT of the window folded by l mod R, and no grid phase needs a
    floating-point reduction mod 1.

    The weights exp(-pi (l - Nq)^2 / N) left out of a row sum to at most
    e^-40 (:func:`certified_radius` on a line, mu = 2 pi / N): the row keeps
    every l with |l - Nq| <= K.  It spans blocks = (2K + 1) // R + 2 blocks
    of R, starting at a multiple of R, so the fold is a reshape and a sum.

    Raises:
        ValueError: if ``resolution`` is below 8.
        OddNError: if 1/h is not an even integer.
        TruncationOverflowError: before forming any array, if the R x
            (blocks R) window has more than ``_MAX_SAMPLES`` entries.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be at least 8, got {resolution}")
    R = resolution
    N = even_n_from_h(g.h)
    # R rows of at least 2K + 1 entries each; the exact size is checked below.
    half = certified_radius(1.0, 2.0 * math.pi / N, math.exp(-40.0), line_tail_bound,
                            (_MAX_SAMPLES // R - 1) // 2)
    blocks = (2 * half + 1) // R + 2
    if R * blocks * R > _MAX_SAMPLES:
        raise TruncationOverflowError(
            f"the Husimi window of {R} x {blocks * R} points is above the cap of {_MAX_SAMPLES}"
        )
    v = periodized_samples(g)
    centers = N * np.arange(R) / R
    starts = R * np.floor((centers - half) / R).astype(np.int64)
    l = starts[:, None] + np.arange(blocks * R)
    dl = l - centers[:, None]
    window = v[l % N] * np.exp(-math.pi * dl * dl / N)
    folded = window.reshape(R, blocks, R).sum(axis=1)
    c_h = (2.0 * N) ** 0.25
    return N * (c_h / N) ** 2 * np.abs(np.fft.fft(folded, axis=1)) ** 2
