"""Experiment runner: strict JSON configuration, the five standard
experiments, and reproducible CSV/JSON outputs.

The manifest records the resolved config itself; reruns with an identical
manifest produce byte-identical CSV bodies (the wall-time column of the
unitarity table is the one documented exception: timings are inherently
non-reproducible).  Every experiment runs on one thread and walks N in
the sorted order of ``load_config``, then each N's times in sorted order,
so its rows come out in that order.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import __version__
from .birkhoff import fit_theorem_constant, theorem_rhs
from .classical import (Sl2IntMatrix, TorusPoint, cat_apply, ehrenfest_time, seeded_points,
                        spectral_data, validity_threshold)
from .errors import ConfigError
from .lagrangian import (
    aligned_propagated_state,
    band_difference,
    circle_distance,
    lagrangian_overlap_field,
    make_damped_lagrangian,
    off_band_tail,
    wavepacket_overlap_field,
)
from .metaplectic import propagate_n, wavepacket
from .tables import ResultTable, format_cell
from .torus import build_propagator_matrix, husimi, matrix_element_exact

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "load_config",
    "run_unitarity",
    "run_egorov",
    "run_theorem",
    "run_bands",
    "run_eigenphases",
    "run_experiment",
    "EXPERIMENTS",
]

_DEFAULTS = {
    "matrix": [2, 1, 1, 1],
    "N_values": [16, 36, 64, 144, 256],
    "n_mode": "ehrenfest-multiples",
    "n_values": [1.0, 1.5, 2.0],
    "points": [],
    "grid_resolution": 64,
    "seed": 20240901,
}


class ExperimentConfig(NamedTuple):
    matrix: tuple[int, int, int, int]
    N_values: tuple[int, ...]
    n_mode: str
    n_values: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    grid_resolution: int
    seed: int

    def cat_matrix(self) -> Sl2IntMatrix:
        return Sl2IntMatrix(*self.matrix)

    def resolve_times(self, n_dim: int) -> list[int]:
        """Times for one N: absolute integers, or Ehrenfest multiples.

        Integer multiples mu map to mu * ceil(t_E); fractional ones to
        ceil(mu * t_E).  A time past the float range is a ConfigError.
        """
        if self.n_mode == "absolute":
            return sorted({int(v) for v in self.n_values})
        sd = spectral_data(self.cat_matrix())
        te = ehrenfest_time(1.0 / n_dim, sd.lam)
        out = set()
        for mu in self.n_values:
            n = int(mu) * math.ceil(te) if float(mu).is_integer() else math.ceil(mu * te)
            if n > sys.float_info.max:
                raise ConfigError(f"config key 'n_values': {mu} Ehrenfest times at N = {n_dim} "
                                  "is a time past the float range")
            out.add(n)
        return sorted(out)

    def resolved_points(self, count: int) -> list[TorusPoint]:
        """Configured points, or a seeded batch of ``count`` points."""
        if self.points:
            return [TorusPoint(q, p) for q, p in self.points]
        return seeded_points(self.seed, count)

    def resolved_pairs(self, count: int) -> list[tuple[TorusPoint, TorusPoint]]:
        """Disjoint consecutive pairs of the point list (seeded if empty).

        Raises:
            ConfigError: if the configured points are fewer than two or odd
                in number, so that some point would have no partner.
        """
        pts = self.resolved_points(2 * count)
        if len(pts) < 2:
            raise ConfigError("at least two points are required to form pairs")
        if len(pts) % 2:
            raise ConfigError(f"config key 'points': {len(pts)} points do not form disjoint "
                              "source/target pairs; give an even count")
        return [(pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)]


def _require(cond: bool, key: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"config key '{key}': {msg}")


def _is_int(v) -> bool:
    """A JSON integer; JSON true/false load as Python bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A JSON number finite as a float, not a boolean (``json.loads`` also
    parses ``Infinity``, ``-Infinity``, ``NaN`` and integers past the float
    range)."""
    if isinstance(v, float):
        return math.isfinite(v)
    return _is_int(v) and abs(v) <= sys.float_info.max


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a strict-JSON config; unknown keys are rejected."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad syntax, >4300 digits, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**_DEFAULTS, **data}

    mat = merged["matrix"]
    _require(isinstance(mat, list) and len(mat) == 4, "matrix", "must be a list of 4 integers")
    _require(all(_is_int(v) and _is_number(v) for v in mat), "matrix",
             "entries must be integers finite as floats")
    _require(mat[0] * mat[3] - mat[1] * mat[2] == 1, "matrix", "determinant must be 1")
    nvals = merged["N_values"]
    _require(isinstance(nvals, list) and len(nvals) > 0, "N_values", "must be a nonempty list")
    _require(all(_is_int(v) and _is_number(v) and v > 0 and v % 2 == 0 for v in nvals),
             "N_values", "entries must be positive even integers finite as floats")
    _require(merged["n_mode"] in ("absolute", "ehrenfest-multiples"), "n_mode",
             "must be 'absolute' or 'ehrenfest-multiples'")
    ntimes = merged["n_values"]
    _require(isinstance(ntimes, list) and len(ntimes) > 0, "n_values", "must be a nonempty list")
    _require(all(_is_number(v) and v >= 0 for v in ntimes), "n_values",
             "entries must be nonnegative numbers")
    if merged["n_mode"] == "absolute":
        _require(all(float(v).is_integer() for v in ntimes), "n_values",
                 "entries must be integers in 'absolute' mode")
    pts = merged["points"]
    _require(isinstance(pts, list), "points", "must be a list of [q, p] pairs")
    for entry in pts:
        _require(
            isinstance(entry, list) and len(entry) == 2
            and all(_is_number(c) for c in entry),
            "points", f"bad entry {entry!r}",
        )
    _require(_is_int(merged["grid_resolution"]) and merged["grid_resolution"] >= 8,
             "grid_resolution", "must be an integer >= 8")
    _require(_is_int(merged["seed"]) and 0 <= merged["seed"] < 2 ** 64, "seed",
             "must be a 64-bit nonnegative integer")

    return ExperimentConfig(
        matrix=tuple(mat),
        N_values=tuple(sorted(set(nvals))),
        n_mode=merged["n_mode"],
        n_values=tuple(merged["n_values"]),
        points=tuple((float(q), float(p)) for q, p in pts),
        grid_resolution=merged["grid_resolution"],
        seed=merged["seed"],
    )


class ExperimentResult(NamedTuple):
    """What one experiment hands to :func:`run_experiment`: its table, the
    extra CSV frames to write beside it (name -> ``(density, N, n, point)``)
    and the constants to record in the manifest.  Both mappings default to
    one read-only empty mapping, so no result can fill another's default."""

    table: ResultTable
    frames: Mapping = MappingProxyType({})
    fitted_constants: Mapping = MappingProxyType({})


# Each row block of the unitarity Gram matrix, and its conjugate factor,
# stays within this size: every N up to 1024 is one block.
_GRAM_BLOCK_BYTES = 16 << 20


def run_unitarity(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-N unitarity defect of the induced matrix and Gram conditioning of
    the comb family.

    The matrix is the closed-form chirp-FFT build, unitary by construction,
    so its defect is rounding.  The Gram column reports the conditioning of
    the comb family of near-delta states (theta = 20 i N) that the
    comb-inversion oracle of the test suite inverts.  The family is
    translation-invariant, so its unit-diagonal Gram matrix is circulant;
    its eigenvalues are the DFT power of theta-series samples, and the
    smallest is (1 - 2q)^2 / (1 + 2q^2) with q = e^(-20 pi) for every even
    N, which is 1.0 in float64."""
    m = cfg.cat_matrix()
    q = math.exp(-20.0 * math.pi)
    gram_min_eig = (1.0 - 2.0 * q) ** 2 / (1.0 + 2.0 * q * q)

    def defect_row(n_dim: int):  # a function, so each N's matrices are freed before the next
        t0 = time.perf_counter()
        u = build_propagator_matrix(m, n_dim)
        defect = 0.0
        rows = max(1, _GRAM_BLOCK_BYTES // (u.itemsize * n_dim))
        for lo in range(0, n_dim, rows):
            gram = u[:, lo:lo + rows].conj().T @ u  # rows lo.. of U^H U
            gram.flat[lo::n_dim + 1] -= 1.0  # minus the identity, in place
            defect = max(defect, float(np.max(np.abs(gram))))
        return n_dim, defect, gram_min_eig, time.perf_counter() - t0

    return ExperimentResult(ResultTable(
        schema="unitarity",
        columns=("N", "unitarity_defect", "gram_min_eig", "wall_seconds"),
        rows=[defect_row(n_dim) for n_dim in cfg.N_values],
    ))


def run_egorov(cfg: ExperimentConfig) -> ExperimentResult:
    """Husimi localization of propagated packets around the classical orbit.

    Emits one grid frame per (N, n, point) and a row with the fraction of the
    Husimi mass inside the disk of radius 10 sqrt(h) around M^n(q0, p0).
    """
    m = cfg.cat_matrix()
    sd = spectral_data(m)
    points = cfg.resolved_points(3)
    res = cfg.grid_resolution
    qs = np.arange(res) / res
    rows, frames = [], {}
    for n_dim in cfg.N_values:
        h = 1.0 / n_dim
        radius = 10.0 * math.sqrt(h)
        for n_time in sorted(set(cfg.resolve_times(n_dim)) | {0}):
            for idx, pt in enumerate(points):
                dens = husimi(propagate_n(m, wavepacket(pt.q, pt.p, h), n_time), res)
                # Propagation refuses a time whose exact matrix power would
                # take long to form, so the target comes after it.
                target = cat_apply(m.power(n_time), pt)
                dist2 = (circle_distance(qs, target.q)[:, None] ** 2
                         + circle_distance(qs, target.p) ** 2)
                total = float(np.sum(dens))
                inside = float(np.sum(dens[dist2 <= radius * radius]))
                frac = inside / total if total > 0 else 0.0
                rows.append((n_dim, n_time, idx, pt.q, pt.p, n_time / ehrenfest_time(h, sd.lam),
                             frac, total / res ** 2))
                frames[f"husimi_N{n_dim}_n{n_time}_p{idx}"] = (dens, n_dim, n_time, pt)
    table = ResultTable(
        schema="egorov",
        columns=("N", "n", "point_idx", "q0", "p0", "n_over_te", "disk_mass_fraction",
                 "riemann_mass"),
        rows=rows,
    )
    return ExperimentResult(table, frames=frames)


def run_theorem(cfg: ExperimentConfig) -> ExperimentResult:
    """Exact vs predicted matrix elements over the configured sweep.

    One row per (N, n, pair) with the remainder bound sqrt(h) lam^(-n/2).
    Rows below the validity threshold are flagged and kept.
    """
    m = cfg.cat_matrix()
    sd = spectral_data(m)
    pairs = cfg.resolved_pairs(5)
    d_fit = fit_theorem_constant(m, seed=cfg.seed)
    rows = []
    for n_dim in cfg.N_values:
        h = 1.0 / n_dim
        te = ehrenfest_time(h, sd.lam)
        for n_time in cfg.resolve_times(n_dim):
            below = n_time + 1e-12 < validity_threshold(h, sd.lam)
            bound = math.sqrt(h) * sd.lam ** (-0.5 * n_time)
            for src, dst in pairs:
                lhs = matrix_element_exact(m, n_time, src, dst, n_dim)
                rhs = theorem_rhs(m, n_time, h, src, dst, d_fit, allow_below_threshold=True)
                residual = abs(lhs - rhs)
                rows.append((n_dim, n_time, n_time / te, src.q, src.p, dst.q, dst.p,
                             lhs.real, lhs.imag, rhs.real, rhs.imag, abs(lhs), abs(rhs),
                             residual, bound, residual / bound, below))

    table = ResultTable(
        schema="theorem",
        columns=("N", "n", "n_over_te", "src_q", "src_p", "dst_q", "dst_p", "lhs_re", "lhs_im",
                 "rhs_re", "rhs_im", "lhs_abs", "rhs_abs", "residual", "bound", "ratio",
                 "below_threshold"),
        rows=rows,
    )
    fitted = {"fitted_scale_constant": {"re": d_fit.real, "im": d_fit.imag}}
    return ExperimentResult(table, fitted_constants=fitted)


def run_bands(cfg: ExperimentConfig) -> ExperimentResult:
    """Off-band tails and along-band differences with their bounds.

    Both states and their overlap forms depend on (N, n) alone, so each
    (N, n) builds them once and evaluates every point against them."""
    m = cfg.cat_matrix()
    sd = spectral_data(m)
    points = cfg.resolved_points(5)
    rows = []
    for n_dim in cfg.N_values:
        h = 1.0 / n_dim
        for n_time in cfg.resolve_times(n_dim):
            # Both states are rooted at (0, 0), so both follow the band of
            # the Lagrangian state, whose s' is 0.
            state = make_damped_lagrangian(m, n_time, h)
            form_l = lagrangian_overlap_field(state)
            g, _ = aligned_propagated_state(m, n_time, h)
            form_g = wavepacket_overlap_field(g)
            bound = math.sqrt(h) * sd.lam ** (-0.5 * n_time) + math.exp(-1.0 / h)
            for idx, pt in enumerate(points):
                tail_l, tail_g = off_band_tail(form_l, state, pt), off_band_tail(form_g, state, pt)
                diff = band_difference(form_l, form_g, state, pt)
                rows.append((n_dim, n_time, idx, pt.q, pt.p, tail_l, tail_g, diff, bound,
                             diff / bound))

    table = ResultTable(
        schema="bands",
        columns=("N", "n", "point_idx", "q0", "p0", "off_band_tail_lagrangian",
                 "off_band_tail_propagated", "band_difference", "bound", "ratio"),
        rows=rows,
    )
    return ExperimentResult(table)


def run_eigenphases(cfg: ExperimentConfig) -> ExperimentResult:
    """Eigenphases of the induced unitary, sorted in [0, 2 pi), with
    nearest-neighbor spacings and the modulus defect.  Exported, never
    interpreted."""
    m = cfg.cat_matrix()

    def phase_rows(n_dim: int):  # a function, so each N's matrix is freed before the next
        u = build_propagator_matrix(m, n_dim)
        eig = np.linalg.eigvals(u)
        phases = np.sort(np.mod(np.angle(eig), 2.0 * math.pi))
        spacing = np.diff(np.concatenate([phases, [phases[0] + 2.0 * math.pi]]))
        defect = float(np.max(np.abs(np.abs(eig) - 1.0)))
        return [(n_dim, j, float(phases[j]), float(spacing[j]), defect)
                for j in range(len(phases))]

    table = ResultTable(
        schema="eigenphases",
        columns=("N", "index", "phase", "spacing", "max_modulus_defect"),
        rows=[row for n_dim in cfg.N_values for row in phase_rows(n_dim)],
    )
    return ExperimentResult(table)


EXPERIMENTS = {
    "unitarity": run_unitarity,
    "egorov": run_egorov,
    "theorem": run_theorem,
    "bands": run_bands,
    "eigenphases": run_eigenphases,
}


def _manifest(cfg: ExperimentConfig, experiment: str, fitted: Mapping) -> dict:
    """What a run's CSVs depend on: the experiment, the resolved config, the
    library version and the environment."""
    import platform  # here, not at module level, to keep `import qcat.harness` lean

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "experiment": experiment,
        "config": cfg._asdict(),
        "library_version": __version__,
        "environment": {
            "numpy": np.__version__,
            "python": sys.version,
            "platform": sys.platform,
            "machine": platform.machine(),
            # frac_turns reduces the long-double turns of gaussian_eval and
            # birkhoff._live_blocks; long double is float64 on some platforms.
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            # LAPACK's eigenphases (and so eigenphases.csv) can move with
            # the BLAS build and its thread count.
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads_env": {var: os.environ.get(var) for var in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                            else os.cpu_count(),
        },
    }
    if fitted:
        manifest["fitted_constants"] = fitted
    return manifest


def _write_frame(path: Path, dens: np.ndarray, n_dim: int, n_time: int, pt: TorusPoint) -> None:
    lines = [f"N,{n_dim}", f"n,{n_time}", f"point,{format_cell(pt.q)},{format_cell(pt.p)}"]
    # repr of each Python float, as format_cell writes a float cell.
    lines.extend(",".join(map(repr, row.tolist())) for row in dens)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def run_experiment(experiment: str, cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Run one experiment and write `<out>/<experiment>.csv`, the frames it
    returns and the manifest.  Returns the CSV path."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = EXPERIMENTS[experiment](cfg)
    csv_path = out / f"{experiment}.csv"
    result.table.write_csv(csv_path)
    for name, (dens, n_dim, n_time, pt) in result.frames.items():
        _write_frame(out / f"{name}.csv", dens, n_dim, n_time, pt)
    manifest = _manifest(cfg, experiment, result.fitted_constants)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    return csv_path
