from __future__ import annotations

import ast
import csv
import gc
import importlib
import importlib.util
import math
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import QCAT_ROOT, run_cli, run_python
from oracles import hamiltonian_from_matrix
from qcat import birkhoff, cli, harness, lagrangian, torus
from qcat.errors import ConfigError, NonPositiveHError, OddNError
from qcat.classical import Sl2IntMatrix, TorusPoint, flow_coefficients, spectral_data
from qcat.harness import (EXPERIMENTS, ExperimentResult, _write_frame, load_config, run_bands,
                          run_experiment, run_unitarity)
from qcat.metaplectic import GaussianState, wavepacket
from qcat.tables import ResultTable, format_cell
from qcat.torus import build_propagator_matrix, pair_symmetrized_detailed


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


def test_cli_import_is_lean():
    # A run needs no thread pool and no rationals, but every module the
    # benchmark's span tracer patches must be loaded by the import.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    code = "import json, sys, qcat.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(run_python(["-c", code]).stdout))
    # The records are NamedTuples: no dataclass code generation at import.
    assert not loaded & {"concurrent.futures", "fractions", "decimal", "logging", "dataclasses"}
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
        "fit_theorem_constant(Sl2IntMatrix(2, 1, 1, 1), seed=1)\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    proc = run_python(["-c", code, str(cfg), str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 0]
    assert not set(loaded) & {"numpy.random", "hashlib", "_hashlib"}


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
    # Every name a module exports resolves.
    for name in sorted(modules):
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"


def _module_constant(tree: ast.Module, name: str, default=None):
    """The literal assigned to ``name`` at the top of a parsed module."""
    return next((ast.literal_eval(stmt.value) for stmt in tree.body
                 if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == name),
                default)


def _read_names(node: ast.AST) -> Counter:
    """How often each name or attribute is read under ``node``."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def test_package_exports_only_what_a_run_calls():
    # Every name a module exports is read by package code outside its own
    # definition, or is a function that the span tracer wraps: a route that
    # only the tests call belongs in tests/oracles.py.  So is every method or
    # property (dunders aside) that a class of the package defines.  Every
    # traced function resolves, so a rename fails here and not only in the
    # traced smoke run.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    traced = _module_constant(ast.parse(spans.read_text(encoding="utf-8")), "TRACED")
    for module, names in traced.items():
        for name in names:
            fn = getattr(importlib.import_module(f"qcat.{module}"), name, None)
            assert callable(fn), f"perfbench/spans.py traces {module}.{name}, which is missing"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in (QCAT_ROOT / "qcat").glob("*.py")}
    reads = []  # (module, the name a top-level statement defines or None, the names it reads)
    for module, tree in trees.items():
        for stmt in tree.body:
            defined = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            reads.append((module, defined, _read_names(stmt)))
    unread = []
    for module, tree in trees.items():
        for name in _module_constant(tree, "__all__", ()):
            read = any(name in names and (mod, defined) != (module, name)
                       for mod, defined, names in reads)
            if not read and name not in traced.get(module, ()):
                unread.append(f"{module}.{name}")
    everywhere = sum((_read_names(tree) for tree in trees.values()), Counter())
    for module, tree in trees.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for member in cls.body:
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                        and everywhere[member.name] == _read_names(member)[member.name]):
                    unread.append(f"{module}.{cls.name}.{member.name}")
    assert unread == []


def test_package_import_loads_only_what_is_asked():
    # The package holds no re-export layer: importing it loads no module of
    # its own, and a module loads only itself and what it imports.
    code = ("import json, sys, importlib; importlib.import_module(sys.argv[1]); "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'qcat')))")
    for target, expected in (("qcat", ["qcat"]),
                             ("qcat.classical", ["qcat", "qcat.classical", "qcat.errors"])):
        proc = run_python(["-c", code, target])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected, target


def test_records_are_immutable_and_validated(tmp_path):
    cat = Sl2IntMatrix(2, 1, 1, 1)
    sd = spectral_data(cat)
    h = 1.0 / 16
    g = wavepacket(0.3, 0.4, h)
    table = ResultTable(schema="s", columns=("a", "b"), rows=[(1, 0.5)])
    ham = hamiltonian_from_matrix(cat)
    records = [
        cat, sd, ham, flow_coefficients(ham, 1.0),
        TorusPoint(0.3, 0.4), g,
        lagrangian.make_damped_lagrangian(cat, 2, h), lagrangian.wavepacket_overlap_field(g),
        pair_symmetrized_detailed(g, g)[1],
        load_config(write_config(tmp_path)), ExperimentResult(table), table,
    ]
    assert len({type(r) for r in records}) == 12
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    # The defaults of ExperimentResult are one read-only mapping, never a
    # shared dict that one result could fill for another.
    with pytest.raises(TypeError):
        ExperimentResult(table).frames["x"] = None
    with pytest.raises(TypeError):
        ExperimentResult(table).fitted_constants["x"] = None
    # The four validating constructors keep their checks.
    with pytest.raises(ValueError):
        Sl2IntMatrix(2, 0, 0, 1)
    with pytest.raises(ValueError):
        Sl2IntMatrix(1.0, 0, 0, 1)  # type: ignore[arg-type]
    assert TorusPoint(1.25, -0.25) == (0.25, 0.75)
    with pytest.raises(NonPositiveHError):
        GaussianState(1.0, 1j, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianState(1.0, 1.0 + 0j, 0.0, 0.0, h)
    # No record holds the skew map: the Birkhoff sum reads its even N from
    # the damped Lagrangian state's h and refuses an odd one.
    odd = lagrangian.make_damped_lagrangian(cat, 2, 1.0 / 5)
    with pytest.raises(OddNError):
        birkhoff.damped_birkhoff_sum(odd, TorusPoint(0.3, 0.4))
    with pytest.raises(ValueError):
        ResultTable(schema="s", columns=("a", "b"), rows=[(1,)])
    # _replace and _make skip those checks, so the package calls neither.
    for path in (QCAT_ROOT / "qcat").glob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert "._replace(" not in source and "._make(" not in source, path.name


def test_cli_parser(tmp_path, capsys):
    # One positional experiment: a bad or missing name is argparse's exit 2.
    for argv, message in ((["bogus"], "invalid choice: 'bogus'"),
                          ([], "the following arguments are required: experiment")):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--config", "c.json", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    text = cli.build_parser().format_help()
    assert all(name in text for name in EXPERIMENTS)
    # main() leaves the collector alone; only the process entry point freezes.
    frozen = gc.get_freeze_count()
    cfg = write_config(tmp_path, N_values=[2])
    assert cli.main(["unitarity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == frozen


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


def test_unitarity_gram_in_row_blocks(tmp_path, monkeypatch):
    # Row blocks of U^H U, each minus its part of the identity, give the
    # defect of the whole Gram matrix; a misplaced diagonal would read ~1.
    cfg = load_config(write_config(tmp_path, N_values=[16, 36]))
    whole = []
    for n_dim in cfg.N_values:
        u = build_propagator_matrix(cfg.cat_matrix(), n_dim)
        whole.append(float(np.max(np.abs(u.conj().T @ u - np.eye(n_dim)))))
    assert [row[1] for row in run_unitarity(cfg).table.rows] == whole  # one block each
    for rows in (1, 3, 7):
        monkeypatch.setattr(harness, "_GRAM_BLOCK_BYTES", rows * 16 * 36)  # rows at N = 36
        got = [row[1] for row in run_unitarity(cfg).table.rows]
        assert got == pytest.approx(whole, abs=1e-15) and max(got) < 1e-14, rows


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
    keys = {"experiment", "config", "library_version", "environment"}
    assert set(manifest) == keys
    assert manifest["experiment"] == "egorov"
    assert manifest["config"] == json.loads(json.dumps(cfg._asdict()))
    env = manifest["environment"]
    assert set(env) == {"numpy", "python", "platform", "machine", "longdouble_eps", "blas",
                        "blas_threads_env", "cpu_affinity"}
    assert env["numpy"] == np.__version__
    assert 0.0 < env["longdouble_eps"] <= np.finfo(np.float64).eps
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["blas_threads_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
    assert env["cpu_affinity"] >= 1
    # theorem alone adds the constant it fitted.
    run_experiment("theorem", cfg, tmp_path / "thm")
    manifest = json.loads((tmp_path / "thm" / "manifest.json").read_text())
    assert set(manifest) == keys | {"fitted_constants"}


def test_manifest_records_the_blas_thread_count(tmp_path):
    # LAPACK's eigenphases can move with the BLAS thread count, so two runs
    # that differ only in it must not write the same manifest.
    cfg = write_config(tmp_path, N_values=[16])
    manifests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        code = ("import os, sys; os.environ['OPENBLAS_NUM_THREADS'] = sys.argv[1]; "
                "from qcat import cli; sys.exit(cli.main(sys.argv[2:]))")
        proc = run_python(["-c", code, threads, "eigenphases", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        manifests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8")))
    assert manifests[0] != manifests[1]
    assert [m["environment"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] for m in manifests] == ["1", "2"]


def test_egorov_writes_configured_points_in_the_unit_square(tmp_path):
    # -1e-20 % 1.0 == 1.0 in IEEE doubles; the configured point is (0, 0.5).
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"points": [[-1e-20, 0.5]], "N_values": [16]}), encoding="utf-8")
    with run_experiment("egorov", load_config(path), tmp_path / "res").open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows and {(row["q0"], row["p0"]) for row in rows} == {("0.0", "0.5")}


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


def test_rerun_is_byte_identical(tmp_path):
    # Two runs of each experiment write the same CSVs (Husimi frames too)
    # and manifests.  So does a config whose N_values and n_values come
    # reversed and duplicated: every experiment walks N and n in the sorted
    # order that load_config and resolve_times give.
    cfg = load_config(write_config(tmp_path, N_values=[8, 16], n_values=[1, 2]))
    shuffled = load_config(write_config(tmp_path, N_values=[16, 8, 16], n_values=[2, 1, 2, 1]))
    for experiment in sorted(EXPERIMENTS):
        outs = [tmp_path / experiment / name for name in ("a", "b", "shuffled")]
        for config, out in zip((cfg, cfg, shuffled), outs):
            run_experiment(experiment, config, out)
        bodies = _csv_bodies(outs[0])
        assert f"{experiment}.csv" in bodies
        if experiment == "egorov":
            assert len(bodies) > 1  # the Husimi frames are compared too
        assert bodies == _csv_bodies(outs[1]) == _csv_bodies(outs[2]), experiment
        manifests = [(out / "manifest.json").read_bytes() for out in outs[:2]]
        assert manifests[0] == manifests[1], experiment


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


def _frame_via_format_cell(dens, n_dim: int, n_time: int, pt) -> str:
    """A Husimi frame written one ``format_cell(float(v))`` per cell."""
    lines = [f"N,{n_dim}", f"n,{n_time}", f"point,{format_cell(pt.q)},{format_cell(pt.p)}"]
    lines += [",".join(format_cell(float(v)) for v in row) for row in dens]
    return "\n".join(lines) + "\n"


def test_husimi_frames_match_format_cell_bytes(tmp_path):
    rng = np.random.default_rng(5)
    sign = np.where(rng.random((16, 16)) < 0.5, -1.0, 1.0)
    values = sign * 10.0 ** rng.uniform(-320.0, 300.0, (16, 16))
    values[0, :8] = [0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e16, 123456789012345680.0, 2.0 ** -1074 * 3]
    pt = TorusPoint(0.3, 0.7)
    path = tmp_path / "frame.csv"
    _write_frame(path, values, 8, 2, pt)
    assert path.read_bytes() == _frame_via_format_cell(values, 8, 2, pt).encode("ascii")

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
        expected = _frame_via_format_cell(values, n_dim, n_time, TorusPoint(q, p))
        assert frame.read_bytes() == expected.encode("ascii")


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
    # --threads stays only as the benchmark's "--threads 1"; any other value
    # is argparse's usage error.
    for threads in ("0", "2"):
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


@pytest.mark.parametrize(
    "experiment, n_mode, n_value, code",
    [("theorem", "absolute", 400, 3), ("bands", "absolute", 400, 3),
     ("egorov", "absolute", 400, 3), ("egorov", "absolute", 360, 3),
     ("egorov", "absolute", 20_000_000, 3), ("theorem", "absolute", 20_000_000, 3),
     ("theorem", "ehrenfest-multiples", 1e308, 2)],
    ids=["theorem-400", "bands-400", "egorov-400", "egorov-360", "egorov-2e7", "theorem-2e7",
         "theorem-1e308-te"],
)
def test_cli_very_large_times_fail_typed(tmp_path, experiment, n_mode, n_value, code):
    # At n = 400 the propagated packet leaves the float range; at n = 360 the
    # periodized samples of egorov would span 4e150 periods; 1e308 Ehrenfest
    # times is a time past the float range.  Each is one typed line.  At
    # n = 2e7 egorov formed the exact power M^n before propagating, and was
    # still running after 100 s; propagation now refuses it first.
    cfg = write_config(tmp_path, N_values=[16], n_mode=n_mode, n_values=[n_value])
    proc = run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")], tmp_path,
                   timeout=30)
    assert proc.returncode == code, proc.stderr
    prefix = "numerical failure: " if code == 3 else "config error: "
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr


def test_load_config_rejects_integers_past_the_float_range(tmp_path):
    # JSON integers are unbounded; one past the float range is not a number
    # that any float expression of the run could take.
    for key, value in (("n_values", [10 ** 400]), ("points", [[10 ** 400, 0.5], [0.1, 0.2]]),
                       ("N_values", [10 ** 400])):
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, **{key: value}))


@pytest.mark.parametrize(
    "experiment, payload",
    [("unitarity", b'{"N_values": [1%s]}' % (b"0" * 400)),
     ("egorov", b'{"N_values": [1%s]}' % (b"0" * 400)),
     ("unitarity", b'{"seed": %s}' % (b"1" * 4401)),
     ("egorov", b'{"seed": %s}' % (b"1" * 4401)),
     ("unitarity", b"[" * 100000 + b"]" * 100000),
     ("unitarity", b'{"matrix": "\xff"}')],
    ids=["unitarity-N-1e400", "egorov-N-1e400", "unitarity-seed-4401-digits",
         "egorov-seed-4401-digits", "unitarity-nested-100000", "unitarity-not-utf8"],
)
def test_cli_out_of_range_config_integers_exit_2(tmp_path, experiment, payload):
    # An N past the float range overflowed at 1.0 / N; json.loads refuses an
    # integer of more than 4300 digits with a plain ValueError and nesting
    # past the recursion limit with a RecursionError; a 0xff byte is not
    # UTF-8.  Each ended in a traceback (exit 1); each is one config error line.
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(payload)
    proc = run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_cli_huge_matrix_or_n_fails_typed(tmp_path, capsys):
    # For a 1e200 matrix tr^2 leaves the float range: spectral_data raised
    # OverflowError (exit 1, a traceback), and unitarity and eigenphases spent
    # 1e200 steps on the shear chain.  A 1e400 entry is not a config number.
    # The first N above the dense cap asked np.eye(N) for N^2 entries.
    k, huge = 10 ** 200, 10 ** 400
    cases = [({"matrix": [k + 1, k, 1, 1]},
              ("egorov", "theorem", "bands", "unitarity", "eigenphases"), 3),
             ({"matrix": [huge + 1, huge, 1, 1]}, ("theorem", "unitarity"), 2),
             ({"N_values": [torus._MAX_DENSE_N + 2]}, ("unitarity", "eigenphases"), 3)]
    for overrides, experiments, code in cases:
        cfg = write_config(tmp_path, **overrides)
        prefix = "numerical failure: " if code == 3 else "config error: "
        for experiment in experiments:
            assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
            err = capsys.readouterr().err
            assert err.startswith(prefix) and err.count("\n") == 1, (experiment, err)


def test_cli_1e20_matrix_builds_its_propagator(tmp_path, capsys):
    # [1e20 + 1, 1e20, 1, 1] has a five-shear chain, but a coherent state
    # leaves the float range after one step; unitarity and eigenphases
    # exited 3 while one pinned the unit constant of the dense build.  They
    # run on N = 16, 64 and on the default N_values.
    matrix = {"matrix": [10 ** 20 + 1, 10 ** 20, 1, 1]}
    for name, cfg in (("small", {**matrix, "N_values": [16, 64]}), ("default", matrix)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for experiment in ("unitarity", "eigenphases"):
            out = tmp_path / name / experiment
            assert cli.main([experiment, "--config", str(path), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
@pytest.mark.parametrize("matrix", [(-2, -1, -1, -1), (0, 1, -1, 3)], ids=["trace-below-2", "a-zero"])
def test_cli_runs_the_whole_family(tmp_path, matrix, experiment):
    # Every hyperbolic matrix takes the one propagation path: each experiment
    # on a trace < -2 matrix and on an a = 0 matrix returns 0 at N = 16, 64
    # (both exited 3 while propagation refused them).
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"matrix": list(matrix), "N_values": [16, 64]}), encoding="utf-8")
    assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / experiment)]) == 0


def test_cli_huge_grid_resolution_fails_typed(tmp_path):
    # An R x (blocks R) Husimi window at R = 20000 would take 6 GiB; under a
    # 3 GiB address-space limit it ended in a MemoryError traceback (exit 1).
    cfg = write_config(tmp_path, N_values=[16], grid_resolution=20000)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from qcat import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = run_python(["-c", code, "egorov", "--config", str(cfg), "--out", str(tmp_path / "out")],
                      tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Husimi window" in proc.stderr


def test_cli_numerical_failure_exit_code(tmp_path):
    # At N = 16 an absurd absolute time makes the propagated packet's overlap
    # decay form lose negative definiteness (NumericalToleranceError from
    # torus.OverlapForm.envelope); the CLI maps it to exit 3.
    cfg = write_config(tmp_path, N_values=[16], n_mode="absolute", n_values=[40])
    proc = run_cli(["theorem", "--config", str(cfg), "--out", str(tmp_path / "boom")], tmp_path)
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr
