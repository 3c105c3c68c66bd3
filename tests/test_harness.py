from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import math
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import QCAT_ROOT, run_cli, run_python
from qcat import harness, lagrangian
from qcat.errors import ConfigError
from qcat.classical import TorusPoint
from qcat.harness import (EXPERIMENTS, _write_frame, load_config, run_bands, run_experiment,
                          run_unitarity)
from qcat.tables import ResultTable, format_cell
from qcat.torus import HusimiGrid


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "matrix": [2, 1, 1, 1],
        "N_values": [8, 16],
        "n_mode": "absolute",
        "n_values": [1, 2],
        "points": [[0.3, 0.4], [0.1, 0.8], [0.6, 0.2], [0.9, 0.5]],
        "grid_resolution": 16,
        "seed": 42,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_load_config_defaults_and_strictness(tmp_path):
    path = tmp_path / "min.json"
    path.write_text("{}", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.N_values == (16, 36, 64, 144, 256)
    assert cfg.n_mode == "ehrenfest-multiples"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bogus_key=1))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, matrix=[2, 1, 1, 2]))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, N_values=[7]))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, N_values=[]))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, grid_resolution=4))
    # --out sets the output directory; the config has no key for it.
    with pytest.raises(ConfigError, match="output_dir"):
        load_config(write_config(tmp_path, output_dir="out"))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{не json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("key, value", [
    ("matrix", [2, 1, 1, True]),
    ("N_values", [True]),
    ("n_values", [True]),
    ("points", [[True, 0.5], [0.1, 0.8]]),
    ("grid_resolution", True),
    ("seed", True),
])
def test_load_config_rejects_booleans(tmp_path, key, value):
    # JSON true loads as Python True, an int; it is not a number here.
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        load_config(write_config(tmp_path, **{key: value}))


def test_absolute_n_values_must_be_integers(tmp_path):
    with pytest.raises(ConfigError, match="config key 'n_values'"):
        load_config(write_config(tmp_path, n_values=[2.7, 3.2]))
    assert load_config(write_config(tmp_path, n_values=[2, 3.0])).resolve_times(16) == [2, 3]
    # Ehrenfest multiples stay real.
    cfg = load_config(write_config(tmp_path, n_mode="ehrenfest-multiples", n_values=[2.7]))
    assert cfg.n_values == (2.7,)


@pytest.mark.parametrize("threads", [0, -4, True, 2.0])
def test_load_config_rejects_bad_threads(tmp_path, threads):
    with pytest.raises(ConfigError, match="threads"):
        load_config(write_config(tmp_path), threads=threads)


def test_cli_import_is_lean():
    # A single-threaded run needs no thread pool and no rationals, but every
    # module the benchmark's span tracer patches must be loaded by the import.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    code = "import json, sys, qcat.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(run_python(["-c", code]).stdout))
    assert not loaded & {"concurrent.futures", "fractions", "decimal", "logging"}
    assert {f"qcat.{mod}" for mod in spans.TRACED} <= loaded


def test_runs_load_neither_numpy_random_nor_openssl(tmp_path):
    # Seeded points and the manifest digest are computed in pure Python, so
    # a run never pays for numpy.random or the OpenSSL behind hashlib.
    cfg = write_config(tmp_path, points=[])
    code = (
        "import json, sys\n"
        "from qcat import cli\n"
        "from qcat.birkhoff import fit_theorem_constant\n"
        "from qcat.classical import Sl2IntMatrix\n"
        "cfg, out = sys.argv[1:]\n"
        "codes = [cli.main([e, '--config', cfg, '--out', out + '/' + e]) for e in ('theorem', 'egorov')]\n"
        "fit_theorem_constant(Sl2IntMatrix(2, 1, 1, 1))\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    proc = run_python(["-c", code, str(cfg), str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 0]
    assert not set(loaded) & {"numpy.random", "hashlib", "_hashlib"}


def test_sha256_matches_hashlib():
    # Lengths 0-200 cross the padding edges 55/56, 63/64 and 119/120.
    data = bytes(np.random.default_rng(3).integers(0, 256, 200, dtype=np.uint8))
    for length in range(201):
        assert harness._sha256_hex(data[:length]) == hashlib.sha256(data[:length]).hexdigest()


def test_package_holds_no_test_only_module():
    # Every module of the package is one the CLI loads, so none of them is
    # reachable only from the tests (test oracles live in tests/).
    package = QCAT_ROOT / "qcat"
    modules = {"qcat" if path.stem == "__init__" else f"qcat.{path.stem}"
               for path in package.glob("*.py")}
    code = "import json, sys, qcat.cli; print(json.dumps(sorted(sys.modules)))"
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert modules - set(json.loads(proc.stdout)) == set()
    # Every name a module exports resolves, and every name the package
    # re-exports is exported by the module it comes from.
    for name in sorted(modules):
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
    package_module = importlib.import_module("qcat")
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    reexports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert reexports
    for node in reexports:
        source = importlib.import_module(f"qcat.{node.module}")
        for alias in node.names:
            assert alias.name in source.__all__, f"qcat.{node.module} does not export {alias.name!r}"
            assert getattr(package_module, alias.name) is getattr(source, alias.name)


def test_resolve_times_ehrenfest(tmp_path):
    path = write_config(tmp_path, n_mode="ehrenfest-multiples", n_values=[1.0, 1.5, 2.0])
    cfg = load_config(path)
    # For N = 64: t_E ~ 2.16: multipliers map to {ceil(te), ceil(1.5 te), 2 ceil(te)}.
    assert cfg.resolve_times(64) == [3, 4, 6]
    assert cfg.resolve_times(16) == [2, 3, 4]


def test_run_unitarity_small(tmp_path):
    cfg = load_config(write_config(tmp_path, N_values=[2, 4]))
    table = run_unitarity(cfg).table
    assert [r[0] for r in table.rows] == [2, 4]
    for row in table.rows:
        assert row[1] < 1e-9  # unitarity defect
        assert row[2] > 1e-10  # smallest normalized Gram eigenvalue


def test_run_experiment_writes_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path, N_values=[8], n_values=[1]))
    out = tmp_path / "res"
    csv_path = run_experiment("egorov", cfg, out)
    assert csv_path.exists()
    assert (out / "manifest.json").exists()
    frames = sorted(out.glob("husimi_N8_*.csv"))
    assert frames
    head = frames[0].read_text().splitlines()[:3]
    assert head[0] == "N,8"
    assert head[1].startswith("n,")
    assert head[2].startswith("point,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "egorov"
    assert "library_version" in manifest
    blob = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":")).encode()
    assert manifest["config_sha256"] == hashlib.sha256(blob).hexdigest()
    env = manifest["environment"]
    assert set(env) == {"numpy", "python", "platform", "machine", "longdouble_eps"}
    assert env["numpy"] == np.__version__
    assert 0.0 < env["longdouble_eps"] <= np.finfo(np.float64).eps


def test_rerun_is_byte_identical(tmp_path):
    cfg = load_config(write_config(tmp_path, N_values=[8, 16], n_values=[1, 2]))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment("theorem", cfg, out1)
    run_experiment("theorem", cfg, out2)
    assert (out1 / "theorem.csv").read_bytes() == (out2 / "theorem.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def _csv_bodies(out: Path) -> dict[str, list[list[str]]]:
    """Every CSV under ``out`` by name, with any wall_seconds column dropped."""
    bodies = {}
    for path in sorted(out.glob("*.csv")):
        rows = [line.split(",") for line in path.read_text(encoding="ascii").splitlines()]
        if "wall_seconds" in rows[0]:
            col = rows[0].index("wall_seconds")
            rows = [row[:col] + row[col + 1:] for row in rows]
        bodies[path.name] = rows
    return bodies


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_threads_do_not_change_results(tmp_path, experiment):
    base = write_config(tmp_path, N_values=[8, 16], n_values=[1, 2])
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    run_experiment(experiment, load_config(base, threads=1), out1)
    run_experiment(experiment, load_config(base, threads=8), out8)
    bodies = _csv_bodies(out1)
    assert f"{experiment}.csv" in bodies
    if experiment == "egorov":
        assert len(bodies) > 1  # the Husimi frames are compared too
    assert bodies == _csv_bodies(out8)


def test_run_bands_builds_each_state_once(tmp_path, monkeypatch):
    # The states and their overlap forms depend on (N, n) alone: the
    # write_config defaults (N in {8, 16}, n in {1, 2}, 4 points) need 4 of
    # each, not one per point.
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(lagrangian, "propagate_n")
    counted(harness, "lagrangian_overlap_field")
    counted(harness, "wavepacket_overlap_field")
    table = run_bands(load_config(write_config(tmp_path))).table
    assert len(table.rows) == 2 * 2 * 4
    assert calls == {"propagate_n": 4, "lagrangian_overlap_field": 4,
                     "wavepacket_overlap_field": 4}


def test_run_bands_nonsymmetric_damping(tmp_path):
    # For a nonsymmetric matrix the Lagrangian approximant needs the exact
    # complex damping coefficient; the symmetric default 1/cos^2(theta) puts
    # its off-band tail up to 7% off the propagated packet's at N = 64, n = 4.
    cfg = load_config(write_config(tmp_path, matrix=[3, 1, 2, 1], N_values=[64], n_values=[4]))
    table = run_bands(cfg).table
    assert table.rows
    for row in table.rows:
        tail_l, tail_g = row[5], row[6]
        assert tail_l == pytest.approx(tail_g, rel=1e-3, abs=0.0)


def test_run_eigenphases(tmp_path):
    cfg = load_config(write_config(tmp_path, N_values=[8]))
    out = tmp_path / "eig"
    run_experiment("eigenphases", cfg, out)
    lines = (out / "eigenphases.csv").read_text().splitlines()
    assert len(lines) == 1 + 8  # header + N phases
    rows = [line.split(",") for line in lines[1:]]
    phases = [float(r[2]) for r in rows]
    assert phases == sorted(phases)
    assert all(float(r[4]) < 1e-9 for r in rows)  # modulus defect
    # Spacings wrap around the circle.
    assert sum(float(r[3]) for r in rows) == pytest.approx(2 * np.pi, abs=1e-9)


def test_eigenphase_gauge_stability(tmp_path):
    # A flipped metaplectic branch multiplies U by a global unit phase; after
    # aligning by the optimal rotation the phase sets coincide.
    from qcat.classical import Sl2IntMatrix
    from qcat.torus import build_propagator_matrix

    u = build_propagator_matrix(Sl2IntMatrix(2, 1, 1, 1), 8)
    eig = np.angle(np.linalg.eigvals(u))
    eig_flip = np.angle(np.linalg.eigvals(-u))
    assert _same_phases_on_circle(eig_flip - np.pi, eig, 1e-8)
    # A real mismatch still fails: at N = 8 the spectrum of -u is not that of u.
    assert not _same_phases_on_circle(eig_flip, eig, 1e-8)


def _same_phases_on_circle(a, b, tol: float) -> bool:
    # Compare as multisets on the circle: sort both by phase in [0, 2 pi) and
    # take the best cyclic alignment, so a cluster split by the 0 / 2 pi cut
    # still lines up.
    za = np.exp(1j * np.sort(np.mod(a, 2 * np.pi)))
    zb = np.exp(1j * np.sort(np.mod(b, 2 * np.pi)))
    return min(float(np.max(np.abs(za - np.roll(zb, s)))) for s in range(len(zb))) < tol


def _frame_via_format_cell(grid, n_dim: int, n_time: int, pt) -> str:
    """A Husimi frame written one ``format_cell(float(v))`` per cell."""
    lines = [f"N,{n_dim}", f"n,{n_time}", f"point,{format_cell(pt.q)},{format_cell(pt.p)}"]
    lines += [",".join(format_cell(float(v)) for v in row) for row in grid.values]
    return "\n".join(lines) + "\n"


def test_husimi_frames_match_format_cell_bytes(tmp_path):
    rng = np.random.default_rng(5)
    sign = np.where(rng.random((16, 16)) < 0.5, -1.0, 1.0)
    values = sign * 10.0 ** rng.uniform(-320.0, 300.0, (16, 16))
    values[0, :8] = [0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e16, 123456789012345680.0, 2.0 ** -1074 * 3]
    grid, pt = HusimiGrid(16, values, 1.0 / 8), TorusPoint(0.3, 0.7)
    path = tmp_path / "frame.csv"
    _write_frame(path, grid, 8, 2, pt)
    assert path.read_bytes() == _frame_via_format_cell(grid, 8, 2, pt).encode("ascii")

    # The frames of an egorov run, re-read and rewritten by format_cell.
    cfg = load_config(write_config(tmp_path, N_values=[8, 16], n_values=[1, 2]))
    run_experiment("egorov", cfg, tmp_path / "res")
    frames = sorted((tmp_path / "res").glob("husimi_*.csv"))
    assert len(frames) >= 4
    for frame in frames:
        lines = frame.read_text(encoding="ascii").splitlines()
        n_dim, n_time = int(lines[0].split(",")[1]), int(lines[1].split(",")[1])
        q, p = (float(v) for v in lines[2].split(",")[1:])
        values = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
        grid = HusimiGrid(cfg.grid_resolution, values, 1.0 / n_dim)
        assert frame.read_bytes() == _frame_via_format_cell(grid, n_dim, n_time, TorusPoint(q, p)).encode("ascii")


def test_format_cell_round_trip():
    vals = [0.1, 1.0 / 3.0, 2.0 ** -40, 123456.789]
    for v in vals:
        assert float(format_cell(v)) == v
    assert format_cell(True) == "1"
    assert format_cell(7) == "7"
    with pytest.raises(TypeError):
        format_cell(1 + 2j)
    table = ResultTable(schema="s", columns=("a", "b"), rows=[(1, 0.5)])
    assert table.to_csv_text() == "a,b\n1,0.5\n"


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}', encoding="utf-8")
    proc = run_cli(["unitarity", "--config", str(bad), "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 2
    boolean = write_config(tmp_path, seed=True)
    proc = run_cli(["unitarity", "--config", str(boolean), "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 2 and "config key 'seed'" in proc.stderr
    # json.loads parses Infinity, -Infinity and NaN; none is a config number.
    for key, value in (("n_values", [math.inf]), ("n_values", [-math.inf]),
                       ("points", [[math.nan, 0.5], [0.1, 0.2]])):
        nonfinite = write_config(tmp_path, n_mode="ehrenfest-multiples", **{key: value})
        proc = run_cli(["theorem", "--config", str(nonfinite), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 2 and f"config key '{key}'" in proc.stderr, proc.stderr
    good = write_config(tmp_path, N_values=[2])
    proc = run_cli(["unitarity", "--config", str(good), "--out", str(tmp_path / "ok"),
                    "--verbose"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "[qcat]" in proc.stderr
    assert (tmp_path / "ok" / "unitarity.csv").exists()
    for threads in ("0", "-4"):
        proc = run_cli(["unitarity", "--config", str(good), "--out", str(tmp_path / "t"),
                        "--threads", threads], tmp_path)
        assert proc.returncode == 2 and "threads" in proc.stderr
        assert not (tmp_path / "t").exists()
    # I/O failure: the output path collides with an existing file.
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    proc = run_cli(["unitarity", "--config", str(good), "--out", str(blocker)], tmp_path)
    assert proc.returncode == 4


def test_odd_point_list_is_a_config_error(tmp_path):
    # Three points make one source/target pair and leave one point over.
    odd = write_config(tmp_path, points=[[0.3, 0.4], [0.1, 0.8], [0.6, 0.2]])
    with pytest.raises(ConfigError, match="3 points"):
        load_config(odd).resolved_pairs(5)
    proc = run_cli(["theorem", "--config", str(odd), "--out", str(tmp_path / "odd")], tmp_path)
    assert proc.returncode == 2 and "3 points" in proc.stderr, proc.stderr
    assert not (tmp_path / "odd" / "theorem.csv").exists()
    # Point-wise experiments take any count; an even list still pairs up.
    assert len(load_config(odd).resolved_points(5)) == 3
    assert len(load_config(write_config(tmp_path)).resolved_pairs(5)) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    # At N = 16 an absurd absolute time makes the propagated packet's overlap
    # decay form lose negative definiteness (NumericalToleranceError from
    # torus.OverlapForm.envelope); the CLI maps it to exit 3.
    cfg = write_config(tmp_path, N_values=[16], n_mode="absolute", n_values=[40])
    proc = run_cli(["theorem", "--config", str(cfg), "--out", str(tmp_path / "boom")], tmp_path)
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr
