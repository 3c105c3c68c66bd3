"""Experiment runner: strict JSON configuration, the five standard
experiments, and reproducible CSV/JSON outputs.

Reruns with an identical manifest produce byte-identical CSV bodies (the
wall-time column of the unitarity table is the one documented exception:
timings are inherently non-reproducible).  Cells are pure functions that
return their finished rows, so the thread count changes scheduling only,
never results; the rows are joined in sorted key order.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .birkhoff import fit_theorem_constant, theorem_rhs
from .classical import (Sl2IntMatrix, TorusPoint, cat_apply, ehrenfest_time, seeded_points,
                        spectral_data, validity_threshold)
from .errors import ConfigError
from .lagrangian import (
    BandIndexer,
    aligned_propagated_state,
    band_difference,
    lagrangian_overlap_field,
    make_damped_lagrangian,
    off_band_tail,
    wavepacket_overlap_field,
)
from .metaplectic import propagate_n, wavepacket
from .tables import ResultTable, format_cell
from .torus import build_propagator_matrix, comb_gram_min_eig, husimi, matrix_element_exact

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


@dataclass(frozen=True)
class ExperimentConfig:
    matrix: tuple[int, int, int, int]
    N_values: tuple[int, ...]
    n_mode: str
    n_values: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    grid_resolution: int
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
        threads=threads,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """What one experiment hands to :func:`run_experiment`: its table, the
    extra CSV frames to write beside it (name -> ``(grid, N, n, point)``)
    and the constants to record in the manifest."""

    table: ResultTable
    frames: dict = field(default_factory=dict)
    fitted_constants: dict = field(default_factory=dict)


def _map_cells(cells, worker, threads: int) -> list:
    """Evaluate pure per-cell workers, possibly in a thread pool; results come
    back in sorted key order, so assembly never depends on scheduling."""
    cells = sorted(cells)
    if threads <= 1:
        return [worker(key) for key in cells]
    # Imported here so a single-threaded run never loads concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, cells))


def run_unitarity(cfg: ExperimentConfig) -> ExperimentResult:
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
        return n_dim, defect, comb_gram_min_eig(n_dim), time.perf_counter() - t0

    return ExperimentResult(ResultTable(
        schema="unitarity",
        columns=("N", "unitarity_defect", "gram_min_eig", "wall_seconds"),
        rows=_map_cells(cfg.N_values, cell, cfg.threads),
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
        row = (n_dim, n_time, idx, pt.q, pt.p, n_time / ehrenfest_time(h, sd.lam), frac,
               grid.riemann_mass)
        return row, (f"husimi_N{n_dim}_n{n_time}_p{idx}", (grid, n_dim, n_time, pt))

    results = _map_cells(cells, cell, cfg.threads)
    table = ResultTable(
        schema="egorov",
        columns=("N", "n", "point_idx", "q0", "p0", "n_over_te", "disk_mass_fraction",
                 "riemann_mass"),
        rows=[row for row, _ in results],
    )
    return ExperimentResult(table, frames=dict(frame for _, frame in results))


def run_theorem(cfg: ExperimentConfig) -> ExperimentResult:
    """Exact vs predicted matrix elements over the configured sweep.

    One row per (N, n, pair) with the remainder bound sqrt(h) lam^(-n/2).
    Rows below the validity threshold are flagged and kept.
    """
    m = cfg.cat_matrix()
    sd = spectral_data(m)
    pairs = cfg.resolved_pairs(5)
    d_fit = fit_theorem_constant(m, seed=cfg.seed)

    def cell(n_dim: int):
        h = 1.0 / n_dim
        te = ehrenfest_time(h, sd.lam)
        rows = []
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
        return rows

    table = ResultTable(
        schema="theorem",
        columns=("N", "n", "n_over_te", "src_q", "src_p", "dst_q", "dst_p", "lhs_re", "lhs_im",
                 "rhs_re", "rhs_im", "lhs_abs", "rhs_abs", "residual", "bound", "ratio",
                 "below_threshold"),
        rows=[row for rows in _map_cells(cfg.N_values, cell, cfg.threads) for row in rows],
    )
    fitted = {"fitted_scale_constant": {"re": d_fit.real, "im": d_fit.imag}}
    return ExperimentResult(table, fitted_constants=fitted)


def run_bands(cfg: ExperimentConfig) -> ExperimentResult:
    """Off-band tails and along-band differences with their bounds.

    Both states and their overlap forms depend on (N, n) alone, so each
    (N, n) cell builds them once and evaluates every point against them."""
    m = cfg.cat_matrix()
    sd = spectral_data(m)
    points = cfg.resolved_points(5)
    cells = [(n_dim, n_time) for n_dim in cfg.N_values for n_time in cfg.resolve_times(n_dim)]

    def cell(key):
        n_dim, n_time = key
        h = 1.0 / n_dim
        form_l = lagrangian_overlap_field(make_damped_lagrangian(m, n_time, h))
        g, _ = aligned_propagated_state(m, n_time, h)
        form_g = wavepacket_overlap_field(g)
        bound = math.sqrt(h) * sd.lam ** (-0.5 * n_time) + math.exp(-1.0 / h)
        rows = []
        for idx, pt in enumerate(points):
            # Both states are rooted at (0, 0), so s' = 0 for each.
            indexer = BandIndexer(theta=sd.theta, q0=pt.q, p0=pt.p, s_prime=0.0)
            tail_l, tail_g = off_band_tail(form_l, indexer), off_band_tail(form_g, indexer)
            diff = band_difference(form_l, form_g, indexer)
            rows.append((n_dim, n_time, idx, pt.q, pt.p, tail_l, tail_g, diff, bound,
                         diff / bound))
        return rows

    table = ResultTable(
        schema="bands",
        columns=("N", "n", "point_idx", "q0", "p0", "off_band_tail_lagrangian",
                 "off_band_tail_propagated", "band_difference", "bound", "ratio"),
        rows=[row for rows in _map_cells(cells, cell, cfg.threads) for row in rows],
    )
    return ExperimentResult(table)


def run_eigenphases(cfg: ExperimentConfig) -> ExperimentResult:
    """Eigenphases of the induced unitary, sorted in [0, 2 pi), with
    nearest-neighbor spacings and the modulus defect.  Exported, never
    interpreted."""
    m = cfg.cat_matrix()

    def cell(n_dim: int):
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
        rows=[row for rows in _map_cells(cfg.N_values, cell, cfg.threads) for row in rows],
    )
    return ExperimentResult(table)


EXPERIMENTS = {
    "unitarity": run_unitarity,
    "egorov": run_egorov,
    "theorem": run_theorem,
    "bands": run_bands,
    "eigenphases": run_eigenphases,
}


# SHA-256 round constants and initial hash value (FIPS 180-4, 4.2.2 and 5.3.3).
_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)
_SHA256_H0 = (0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
              0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19)


def _sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``, equal to ``hashlib.sha256(data).hexdigest()``.

    Pure Python, because ``hashlib`` loads OpenSSL (3.5 MB of resident
    memory) to hash a config of a few hundred bytes."""
    mask = 0xFFFFFFFF

    def rotr(x: int, n: int) -> int:
        return (x >> n | x << (32 - n)) & mask

    length = len(data)
    data = data + b"\x80" + b"\x00" * ((55 - length) % 64) + (8 * length).to_bytes(8, "big")
    digest = list(_SHA256_H0)
    for start in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big") for i in range(start, start + 64, 4)]
        for t in range(16, 64):
            s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ w[t - 15] >> 3
            s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ w[t - 2] >> 10
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & mask)
        a, b, c, d, e, f, g, h = digest
        for k, wt in zip(_SHA256_K, w):
            t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + (e & f ^ ~e & g) + k + wt
            t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + (a & b ^ a & c ^ b & c)
            a, b, c, d, e, f, g, h = (t1 + t2) & mask, a, b, c, (d + t1) & mask, e, f, g
        digest = [(x + y) & mask for x, y in zip(digest, (a, b, c, d, e, f, g, h))]
    return "".join(f"{x:08x}" for x in digest)


def _manifest(cfg: ExperimentConfig, experiment: str, fitted: dict) -> dict:
    import platform  # here, not at module level, to keep `import qcat.harness` lean

    resolved = asdict(cfg)
    resolved.pop("threads")  # execution detail, not part of the result identity
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    manifest = {
        "experiment": experiment,
        "config": resolved,
        "config_sha256": _sha256_hex(blob),
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
    if fitted:
        manifest["fitted_constants"] = fitted
    return manifest


def _write_frame(path: Path, grid, n_dim: int, n_time: int, pt: TorusPoint) -> None:
    lines = [f"N,{n_dim}", f"n,{n_time}", f"point,{format_cell(pt.q)},{format_cell(pt.p)}"]
    # repr of each Python float, as format_cell writes a float cell.
    lines.extend(",".join(map(repr, row.tolist())) for row in grid.values)
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
    for name, (grid, n_dim, n_time, pt) in result.frames.items():
        _write_frame(out / f"{name}.csv", grid, n_dim, n_time, pt)
    manifest = _manifest(cfg, experiment, result.fitted_constants)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    return csv_path
