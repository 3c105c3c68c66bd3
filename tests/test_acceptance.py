"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import comb_state, random_gaussian_state, random_hyperbolic, random_shear_product, run_python
from oracles import (
    PlaneTranslation,
    check_pointwise_approx,
    compose_translation_phase,
    gaussian_overlap,
    hamiltonian_from_matrix,
    kernel_quadrature_oracle,
    overlap_quadrature,
    pair_from_coefficients,
    schrodinger_residual,
    torus_coefficients,
    translate,
)
from qcat.birkhoff import fit_theorem_constant, theorem_rhs
from qcat.classical import Sl2IntMatrix, TorusPoint, cat_apply, ehrenfest_time, spectral_data
from qcat.lagrangian import (aligned_propagated_state, band_difference,
                             lagrangian_overlap_field, make_damped_lagrangian, off_band_tail,
                             wavepacket_overlap_field)
from qcat.metaplectic import gaussian_eval, propagate_n, wavepacket
from qcat.torus import (
    build_propagator_matrix,
    husimi,
    matrix_element_exact,
)

CAT = Sl2IntMatrix(2, 1, 1, 1)
SEED = 20240901


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _seeded_pairs(count: int) -> list[tuple[TorusPoint, TorusPoint]]:
    rng = np.random.default_rng(SEED)
    return [
        (TorusPoint(float(rng.uniform()), float(rng.uniform())),
         TorusPoint(float(rng.uniform()), float(rng.uniform())))
        for _ in range(count)
    ]


def test_a1_unitarity():
    t0 = time.time()
    worst = 0.0
    for n_dim in (2, 4, 8, 16, 36, 64):
        u = build_propagator_matrix(CAT, n_dim)
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(n_dim)))))
    det_defect = abs(abs(np.linalg.det(build_propagator_matrix(CAT, 2))) - 1.0)
    elapsed = time.time() - t0
    _report("A1", worst < 1e-9 and det_defect < 1e-10 and elapsed < 30.0,
            f"max unitarity defect {worst:.2e} over N in (2..64), "
            f"||det U_2| - 1| {det_defect:.2e}, {elapsed:.1f}s")


def test_a2_translation_algebra():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    h = 1.0 / 16.0
    xs = np.linspace(-2.5, 2.5, 100)
    worst = 0.0
    for _ in range(20):
        g = random_gaussian_state(rng, h)
        v1 = PlaneTranslation(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        v2 = PlaneTranslation(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        # (1) explicit translation action
        got = gaussian_eval(translate(g, v1), xs)
        ref = (np.exp(-1j * math.pi * v1.a * v1.b / h)
               * np.exp(2j * math.pi * v1.b * xs / h)
               * gaussian_eval(g, xs - v1.a))
        worst = max(worst, float(np.max(np.abs(got - ref))))
        # (2) cocycle composition law
        lhs = gaussian_eval(translate(translate(g, v2), v1), xs)
        rhs = compose_translation_phase(v1, v2, h) * gaussian_eval(
            translate(g, PlaneTranslation(v1.a + v2.a, v1.b + v2.b)), xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        # (3) unit translations commute up to e^{2 i pi / h}
        e10, e01 = PlaneTranslation(1.0, 0.0), PlaneTranslation(0.0, 1.0)
        lhs = gaussian_eval(translate(translate(g, e01), e10), xs)
        rhs = np.exp(2j * math.pi / h) * gaussian_eval(translate(translate(g, e10), e01), xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        # equivariance of the propagator
        m = random_hyperbolic(rng)
        mv = PlaneTranslation(m.a * v1.a + m.b * v1.b, m.c * v1.a + m.d * v1.b)
        lhs = gaussian_eval(propagate_n(m, translate(g, v1), 1), xs)
        rhs = gaussian_eval(translate(propagate_n(m, g, 1), mv), xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.time() - t0
    _report("A2", worst < 1e-9 and elapsed < 10.0,
            f"max pointwise defect {worst:.2e} over 20 cases x 4 laws, {elapsed:.1f}s")


def test_a3_dimension():
    t0 = time.time()
    smallest = 1.0
    for n_dim in (2, 4, 8, 16):
        basis = [torus_coefficients(comb_state(n_dim, k)) for k in range(n_dim)]
        gram = np.array([[pair_from_coefficients(bk, bj) for bk in basis] for bj in basis])
        norm = np.sqrt(np.real(np.diag(gram)))
        gram_n = gram / np.outer(norm, norm)
        eig = np.linalg.eigvalsh((gram_n + gram_n.conj().T) / 2.0)
        smallest = min(smallest, float(eig[0]))
    elapsed = time.time() - t0
    _report("A3", smallest > 1e-10 and elapsed < 10.0,
            f"smallest normalized Gram eigenvalue {smallest:.3e}, {elapsed:.1f}s")


def test_a4_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(15):
        m = random_shear_product(rng)
        h = float(rng.choice([1.0 / 8.0, 1.0 / 16.0]))
        g = random_gaussian_state(rng, h)
        out = propagate_n(m, g, 1)
        sigma = math.sqrt(h / (2.0 * math.pi * complex(out.theta).imag))
        xs = np.array([out.q, out.q + 0.7 * sigma, out.q - 1.3 * sigma])
        for o, x in zip(kernel_quadrature_oracle(m, g, xs, h), xs):
            closed = gaussian_eval(out, float(x))
            worst = max(worst, abs(o - closed) / max(abs(closed), 1e-12))
    for _ in range(15):
        h = float(rng.choice([1.0 / 4.0, 1.0 / 8.0]))
        g1 = random_gaussian_state(rng, h)
        g2 = random_gaussian_state(rng, h)
        closed = gaussian_overlap(g1, g2)
        quad = overlap_quadrature(g1, g2)
        if abs(quad) > 1e-8:
            worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.time() - t0
    _report("A4", worst < 1e-8 and elapsed < 60.0,
            f"worst relative deviation {worst:.2e} over 30 configurations, {elapsed:.1f}s")


def test_a5_egorov():
    t0 = time.time()
    sd = spectral_data(CAT)
    rng = np.random.default_rng(SEED)
    points = [TorusPoint(float(rng.uniform()), float(rng.uniform())) for _ in range(3)]
    res = 64
    qs = np.arange(res) / res
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    worst = 1.0
    for n_dim in (64, 144, 256):
        h = 1.0 / n_dim
        te = ehrenfest_time(h, sd.lam)
        radius = 10.0 * math.sqrt(h)
        for n in range(0, int(0.75 * te) + 1):
            for pt in points:
                g = propagate_n(CAT, wavepacket(pt.q, pt.p, h), n)
                dens = husimi(g, res)
                target = cat_apply(CAT.power(n), pt)
                dq = np.abs(qq - target.q)
                dp = np.abs(pp - target.p)
                dist2 = np.minimum(dq, 1 - dq) ** 2 + np.minimum(dp, 1 - dp) ** 2
                frac = float(dens[dist2 <= radius * radius].sum() / dens.sum())
                worst = min(worst, frac)
    elapsed = time.time() - t0
    _report("A5", worst >= 0.9 and elapsed < 180.0,
            f"min disk-mass fraction {worst:.4f} (radius 10 sqrt(h)), {elapsed:.1f}s")


def test_a6_main_theorem():
    t0 = time.time()
    sd = spectral_data(CAT)
    d_fit = fit_theorem_constant(CAT, seed=SEED)
    pairs = _seeded_pairs(5)
    worst_ratio = 0.0
    medians: dict[tuple[int, int], float] = {}
    for n_dim in (16, 64, 256):
        h = 1.0 / n_dim
        te = ehrenfest_time(h, sd.lam)
        for slot, n in enumerate([math.ceil(te), math.ceil(1.5 * te), 2 * math.ceil(te)]):
            residuals = []
            bound = math.sqrt(h) * sd.lam ** (-0.5 * n)
            for src, dst in pairs:
                lhs = matrix_element_exact(CAT, n, src, dst, n_dim)
                rhs = theorem_rhs(CAT, n, h, src, dst, d_fit, allow_below_threshold=True)
                residuals.append(abs(lhs - rhs))
            worst_ratio = max(worst_ratio, max(residuals) / bound)
            medians[(n_dim, slot)] = float(np.median(residuals))
    monotone = all(
        medians[(16, s)] > medians[(64, s)] > medians[(256, s)] for s in range(3)
    )
    elapsed = time.time() - t0
    _report("A6", worst_ratio <= 5.0 and monotone and elapsed < 300.0,
            f"worst residual/bound {worst_ratio:.2f} (<= 5), median decay monotone: "
            f"{monotone}, D = {d_fit:.4f}, {elapsed:.1f}s")


def test_a7_band_estimates():
    t0 = time.time()
    sd = spectral_data(CAT)
    rng = np.random.default_rng(SEED)
    points = [TorusPoint(float(rng.uniform()), float(rng.uniform())) for _ in range(5)]
    worst_tail = 0.0
    ratios: dict[int, list[float]] = {16: [], 64: [], 256: []}
    for n_dim in (16, 64, 256):
        h = 1.0 / n_dim
        te = ehrenfest_time(h, sd.lam)
        for n in [math.ceil(te), math.ceil(1.5 * te), 2 * math.ceil(te)]:
            # Both states are rooted at (0, 0), so both follow the band of
            # the Lagrangian state, whose s' is 0.
            state = make_damped_lagrangian(CAT, n, h)
            form_l = lagrangian_overlap_field(state)
            g, _ = aligned_propagated_state(CAT, n, h)
            form_g = wavepacket_overlap_field(g)
            bound = math.sqrt(h) * sd.lam ** (-0.5 * n) + math.exp(-1.0 / h)
            for pt in points:
                if n_dim >= 64:
                    worst_tail = max(worst_tail, off_band_tail(form_l, state, pt))
                    worst_tail = max(worst_tail, off_band_tail(form_g, state, pt))
                diff = band_difference(form_l, form_g, state, pt)
                ratios[n_dim].append(diff / bound)
    c_fit = max(ratios[64])
    uniform = max(max(r) for r in ratios.values()) <= 5.0 * c_fit
    elapsed = time.time() - t0
    _report("A7", worst_tail < 1e-8 and uniform and elapsed < 120.0,
            f"max off-band tail {worst_tail:.2e} (< 1e-8 at N >= 64), band-difference "
            f"ratios within 5x the N=64 fit {c_fit:.3f}, {elapsed:.1f}s")


def test_a8_pointwise_approximation():
    t0 = time.time()
    sd = spectral_data(CAT)
    grid = np.linspace(-2.0, 2.0, 401)
    ok = True
    detail = []
    for n_dim in (64, 256):
        logs = []
        for n in range(2, 9):
            rep = check_pointwise_approx(CAT, n, 1.0 / n_dim, grid)
            ok = ok and rep.violations == 0
            logs.append(math.log(rep.fitted_r))
        slope = float(np.polyfit(range(2, 9), logs, 1)[0])
        target = -4.0 * math.log(sd.lam)
        ok = ok and abs(slope - target) < 0.1 * abs(target)
        detail.append(f"N={n_dim}: slope {slope:.3f} vs {target:.3f}")
    elapsed = time.time() - t0
    _report("A8", ok and elapsed < 60.0, "; ".join(detail) + f", zero violations, {elapsed:.1f}s")


def test_a9_schrodinger_residual():
    t0 = time.time()
    ham = hamiltonian_from_matrix(CAT)
    h = 1.0 / 32.0
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        for x in (-1.0, 0.0, 1.0):
            for xi in (-0.4, 0.3, 1.1):
                worst = max(worst, schrodinger_residual(ham, t, x, xi, h))
    elapsed = time.time() - t0
    _report("A9", worst < 1e-7 and elapsed < 5.0,
            f"max residual {worst:.2e} over 27 (t, x, xi) triples, {elapsed:.1f}s")


def test_a10_thread_determinism(tmp_path: Path):
    # qcat runs on one thread; "--threads 1", the one value the CLI accepts,
    # changes nothing: two processes write the same CSV and manifest.
    t0 = time.time()
    cfg = {
        "matrix": [2, 1, 1, 1],
        "N_values": [16, 36],
        "n_mode": "ehrenfest-multiples",
        "n_values": [1.0, 2.0],
        "seed": SEED,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outputs = []
    for extra in ([], ["--threads", "1"]):
        out = tmp_path / f"run{len(outputs)}"
        proc = run_python(["-m", "qcat.cli", "theorem", "--config", str(cfg_path), "--out", str(out),
                           *extra], tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("theorem.csv", "manifest.json")])
    elapsed = time.time() - t0
    _report("A10", outputs[0] == outputs[1],
            f"theorem CSV and manifest byte-identical across two processes, {elapsed:.1f}s")
