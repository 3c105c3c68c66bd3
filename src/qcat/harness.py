"""Experiment runner: strict JSON configuration, the five standard
experiments, and reproducible CSV/JSON outputs.

Reruns with an identical manifest produce byte-identical CSV bodies (the
wall-time column of the unitarity table is the one documented exception:
timings are inherently non-reproducible).  Cells are pure functions, so the
thread count changes scheduling only, never results; output is assembled
single-threaded in sorted key order.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .birkhoff import fit_theorem_constant, theorem_error_table
from .classical import Sl2IntMatrix, TorusPoint, cat_apply, ehrenfest_time, spectral_data
from .errors import ConfigError
from .lagrangian import (
    aligned_propagated_state,
    band_difference,
    make_damped_lagrangian,
    off_band_tail,
)
from .metaplectic import propagate_n, wavepacket
from .tables import ResultTable, format_cell
from .torus import build_propagator_matrix, comb_gram_min_eig, husimi

__all__ = [
    "ExperimentConfig",
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
    "output_dir": "out",
    "seed": 20240901,
}


@dataclass(frozen=True)
class ExperimentConfig:
    matrix: tuple[int, int, int, int]
    N_values: tuple[int, ...]
    n_mode: str
    n_values: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    grid_resolution: int
    output_dir: str
    seed: int
    threads: int = 1

    def cat_matrix(self) -> Sl2IntMatrix:
        return Sl2IntMatrix(*self.matrix)

    def resolve_times(self, n_dim: int) -> list[int]:
        """Times for one N: absolute integers, or Ehrenfest multiples.

        Integer multiples mu map to mu * ceil(t_E); fractional ones to
        ceil(mu * t_E).
        """
        if self.n_mode == "absolute":
            return sorted({int(v) for v in self.n_values})
        sd = spectral_data(self.cat_matrix())
        te = ehrenfest_time(1.0 / n_dim, sd.lam)
        out = set()
        for mu in self.n_values:
            if float(mu).is_integer():
                out.add(int(mu) * math.ceil(te))
            else:
                out.add(math.ceil(mu * te))
        return sorted(out)

    def resolved_points(self, count: int) -> list[TorusPoint]:
        """Configured points, or a seeded batch of ``count`` points."""
        if self.points:
            return [TorusPoint(q, p) for q, p in self.points]
        rng = np.random.default_rng(self.seed)
        return [TorusPoint(float(rng.uniform()), float(rng.uniform())) for _ in range(count)]

    def resolved_pairs(self, count: int) -> list[tuple[TorusPoint, TorusPoint]]:
        """Disjoint consecutive pairs of the point list (seeded if empty)."""
        pts = self.resolved_points(2 * count)
        if len(pts) < 2:
            raise ConfigError("at least two points are required to form pairs")
        return [(pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)]


def _require(cond: bool, key: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"config key '{key}': {msg}")


def _is_int(v) -> bool:
    """A JSON integer; JSON true/false load as Python bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite JSON number, not a boolean (``json.loads`` also parses
    ``Infinity``, ``-Infinity`` and ``NaN``)."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def load_config(path: str | Path, threads: int = 1) -> ExperimentConfig:
    """Parse and validate a strict-JSON config; unknown keys are rejected.

    ``threads`` is the worker count, an integer >= 1."""
    if not _is_int(threads) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**_DEFAULTS, **data}

    mat = merged["matrix"]
    _require(isinstance(mat, list) and len(mat) == 4, "matrix", "must be a list of 4 integers")
    _require(all(_is_int(v) for v in mat), "matrix", "entries must be integers")
    _require(mat[0] * mat[3] - mat[1] * mat[2] == 1, "matrix", "determinant must be 1")
    nvals = merged["N_values"]
    _require(isinstance(nvals, list) and len(nvals) > 0, "N_values", "must be a nonempty list")
    _require(all(_is_int(v) and v > 0 and v % 2 == 0 for v in nvals), "N_values",
             "entries must be positive even integers")
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
    _require(isinstance(merged["output_dir"], str), "output_dir", "must be a string")
    _require(_is_int(merged["seed"]) and 0 <= merged["seed"] < 2 ** 64, "seed",
             "must be a 64-bit nonnegative integer")

    return ExperimentConfig(
        matrix=tuple(mat),
        N_values=tuple(sorted(set(nvals))),
        n_mode=merged["n_mode"],
        n_values=tuple(merged["n_values"]),
        points=tuple((float(q), float(p)) for q, p in pts),
        grid_resolution=merged["grid_resolution"],
        output_dir=merged["output_dir"],
        seed=merged["seed"],
        threads=threads,
    )


def _map_cells(cells, worker, threads: int) -> dict:
    """Evaluate pure per-cell workers, possibly in a thread pool; results are
    keyed so assembly order never depends on scheduling."""
    if threads <= 1:
        return {key: worker(key) for key in cells}
    # Imported here so a single-threaded run never loads concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        vals = list(pool.map(worker, cells))
    return dict(zip(cells, vals))


def run_unitarity(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Per-N unitarity defect of the induced matrix and Gram conditioning of
    the comb family.

    The matrix is the closed-form chirp-FFT build, unitary by construction,
    so its defect is rounding.  The Gram column reports the conditioning of
    the comb family that the comb-inversion oracle of the test suite
    inverts; the family is translation-invariant, so its Gram matrix is
    circulant and :func:`qcat.torus.comb_gram_min_eig` gives its smallest
    eigenvalue from the samples of one comb state and one FFT."""
    m = cfg.cat_matrix()

    def cell(n_dim: int):
        t0 = time.perf_counter()
        u = build_propagator_matrix(m, n_dim)
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n_dim))))
        return defect, comb_gram_min_eig(n_dim), time.perf_counter() - t0

    results = _map_cells(list(cfg.N_values), cell, cfg.threads)
    rows = [
        (n_dim, results[n_dim][0], results[n_dim][1], results[n_dim][2])
        for n_dim in sorted(cfg.N_values)
    ]
    table = ResultTable(
        schema="unitarity",
        columns=("N", "unitarity_defect", "gram_min_eig", "wall_seconds"),
        rows=rows,
    )
    return table, {}


def run_egorov(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Husimi localization of propagated packets around the classical orbit.

    Emits one grid frame per (N, n, point) and a row with the fraction of the
    Husimi mass inside the disk of radius 10 sqrt(h) around M^n(q0, p0).
    """
    m = cfg.cat_matrix()
    sd = spectral_data(m)
    points = cfg.resolved_points(3)
    res = cfg.grid_resolution
    cells = []
    for n_dim in cfg.N_values:
        times = sorted({n for n in cfg.resolve_times(n_dim)} | {0})
        cells.extend((n_dim, n, idx) for n in times for idx in range(len(points)))

    def cell(key):
        n_dim, n_time, idx = key
        h = 1.0 / n_dim
        pt = points[idx]
        g = propagate_n(m, wavepacket(pt.q, pt.p, h), n_time)
        grid = husimi(g, res)
        target = cat_apply(m.power(n_time), pt)
        qs = np.arange(res) / res
        qq, pp = np.meshgrid(qs, qs, indexing="ij")
        dq = np.abs(qq - target.q)
        dp = np.abs(pp - target.p)
        dist2 = np.minimum(dq, 1.0 - dq) ** 2 + np.minimum(dp, 1.0 - dp) ** 2
        radius = 10.0 * math.sqrt(h)
        total = float(np.sum(grid.values))
        inside = float(np.sum(grid.values[dist2 <= radius * radius]))
        frac = inside / total if total > 0 else 0.0
        return grid, frac, total / res ** 2

    results = _map_cells(cells, cell, cfg.threads)
    rows = []
    frames = {}
    for key in sorted(results):
        n_dim, n_time, idx = key
        grid, frac, mass = results[key]
        te = ehrenfest_time(1.0 / n_dim, sd.lam)
        rows.append((n_dim, n_time, idx, points[idx].q, points[idx].p,
                     n_time / te, frac, mass))
        frames[f"husimi_N{n_dim}_n{n_time}_p{idx}"] = (grid, n_dim, n_time, points[idx])
    table = ResultTable(
        schema="egorov",
        columns=("N", "n", "point_idx", "q0", "p0", "n_over_te", "disk_mass_fraction",
                 "riemann_mass"),
        rows=rows,
    )
    return table, frames


def run_theorem(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Exact vs predicted matrix elements over the configured sweep."""
    m = cfg.cat_matrix()
    d_fit = fit_theorem_constant(m, seed=cfg.seed)
    pairs = cfg.resolved_pairs(5)
    n_times = {n_dim: cfg.resolve_times(n_dim) for n_dim in cfg.N_values}

    def cell(n_dim: int):
        return theorem_error_table(m, [n_dim], {n_dim: n_times[n_dim]}, pairs, d_fit)

    results = _map_cells(list(cfg.N_values), cell, cfg.threads)
    rows = []
    for n_dim in sorted(cfg.N_values):
        rows.extend(results[n_dim].rows)
    table = ResultTable(schema="theorem", columns=results[sorted(cfg.N_values)[0]].columns,
                        rows=rows)
    extras = {"fitted_scale_constant": {"re": d_fit.real, "im": d_fit.imag}}
    return table, extras


def run_bands(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Off-band tails and along-band differences with their bounds."""
    m = cfg.cat_matrix()
    sd = spectral_data(m)
    points = cfg.resolved_points(5)
    cells = []
    for n_dim in cfg.N_values:
        for n_time in cfg.resolve_times(n_dim):
            cells.extend((n_dim, n_time, idx) for idx in range(len(points)))

    def cell(key):
        n_dim, n_time, idx = key
        h = 1.0 / n_dim
        pt = points[idx]
        tail_l = off_band_tail(make_damped_lagrangian(m, n_time, h), pt.q, pt.p)
        g, _ = aligned_propagated_state(m, n_time, h)
        tail_g = off_band_tail(g, pt.q, pt.p, theta=sd.theta)
        diff = band_difference(m, n_time, h, pt.q, pt.p, allow_below_threshold=True)
        bound = math.sqrt(h) * sd.lam ** (-0.5 * n_time) + math.exp(-1.0 / h)
        return tail_l, tail_g, diff, bound

    results = _map_cells(cells, cell, cfg.threads)
    rows = []
    for key in sorted(results):
        n_dim, n_time, idx = key
        tail_l, tail_g, diff, bound = results[key]
        rows.append((n_dim, n_time, idx, points[idx].q, points[idx].p,
                     tail_l, tail_g, diff, bound, diff / bound))
    table = ResultTable(
        schema="bands",
        columns=("N", "n", "point_idx", "q0", "p0", "off_band_tail_lagrangian",
                 "off_band_tail_propagated", "band_difference", "bound", "ratio"),
        rows=rows,
    )
    return table, {}


def run_eigenphases(cfg: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Eigenphases of the induced unitary, sorted in [0, 2 pi), with
    nearest-neighbor spacings and the modulus defect.  Exported, never
    interpreted."""
    m = cfg.cat_matrix()

    def cell(n_dim: int):
        u = build_propagator_matrix(m, n_dim)
        eig = np.linalg.eigvals(u)
        phases = np.sort(np.mod(np.angle(eig), 2.0 * math.pi))
        spacing = np.diff(np.concatenate([phases, [phases[0] + 2.0 * math.pi]]))
        mod_defect = np.abs(np.abs(eig) - 1.0)
        return phases, spacing, np.max(mod_defect)

    results = _map_cells(list(cfg.N_values), cell, cfg.threads)
    rows = []
    for n_dim in sorted(cfg.N_values):
        phases, spacing, defect = results[n_dim]
        for j in range(len(phases)):
            rows.append((n_dim, j, float(phases[j]), float(spacing[j]), float(defect)))
    table = ResultTable(
        schema="eigenphases",
        columns=("N", "index", "phase", "spacing", "max_modulus_defect"),
        rows=rows,
    )
    return table, {}


EXPERIMENTS = {
    "unitarity": run_unitarity,
    "egorov": run_egorov,
    "theorem": run_theorem,
    "bands": run_bands,
    "eigenphases": run_eigenphases,
}


def _manifest(cfg: ExperimentConfig, experiment: str, extras: dict) -> dict:
    import platform  # here, not at module level, to keep `import qcat.harness` lean

    resolved = asdict(cfg)
    resolved.pop("threads")  # execution detail, not part of the result identity
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    manifest = {
        "experiment": experiment,
        "config": resolved,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "library_version": __version__,
        # cis_turns reduces phases in long double, which is float64 on some
        # platforms; its epsilon says which precision this run had.
        "environment": {
            "numpy": np.__version__,
            "python": sys.version,
            "platform": sys.platform,
            "machine": platform.machine(),
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
        },
    }
    if extras:
        manifest["fitted_constants"] = extras
    return manifest


def _write_frame(path: Path, grid, n_dim: int, n_time: int, pt: TorusPoint) -> None:
    lines = [f"N,{n_dim}", f"n,{n_time}", f"point,{format_cell(pt.q)},{format_cell(pt.p)}"]
    # repr of each Python float, as format_cell writes a float cell.
    lines.extend(",".join(map(repr, row.tolist())) for row in grid.values)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def run_experiment(experiment: str, cfg: ExperimentConfig, out_dir: str | Path) -> Path:
    """Run one experiment and write `<out>/<experiment>.csv` plus the manifest
    (and Husimi frames for the Egorov run).  Returns the CSV path."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table, extras = EXPERIMENTS[experiment](cfg)
    frames = {}
    fitted = extras
    if experiment == "egorov":
        frames, fitted = extras, {}
    csv_path = out / f"{experiment}.csv"
    table.write_csv(csv_path)
    for name, (grid, n_dim, n_time, pt) in frames.items():
        _write_frame(out / f"{name}.csv", grid, n_dim, n_time, pt)
    manifest = _manifest(cfg, experiment, fitted)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    return csv_path
