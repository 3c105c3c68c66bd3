"""Self-tests of the benchmark on tiny configs; they take seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import bench
import spans

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "spectrum": bench.Workload("spectrum", ("unitarity", "eigenphases"), {"N_values": [8, 16]}),
    "matrix-elements": bench.Workload("matrix-elements", ("theorem", "bands"),
                                      {"N_values": [64], "n_mode": "absolute", "n_values": [4]}),
    "prediction": bench.Workload("prediction", ("prediction",),
                                 {"N_values": [64], "n_mode": "absolute", "n_values": [6]}),
}


@pytest.fixture(autouse=True)
def _hermetic(monkeypatch):
    for var, value in bench.blas_env().items():
        monkeypatch.setenv(var, value)


def tiny_reference(workload, tmp_path):
    ops = bench.run_pass(workload, bench.REFERENCE_SEED, tmp_path / "ref")
    assert all(op.exit_code == 0 for op in ops), [op.message for op in ops]
    return {op.name: op.files for op in ops}, ops


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace, section):
    workload = TINY["spectrum"]
    reference, _ = tiny_reference(workload, tmp_path)
    result = bench.run(workload, seed=3, seconds=0.1, trace=trace, reference=reference)
    emitted = {name: s["unit"] for name, s in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert result["tally"].failed == 0 and result["tally"].attempted >= 2
    assert all(s["samples"] >= 1 for s in result["metrics"].values())


def test_spans_nest_and_self_time_is_within_total():
    tracer = spans.Tracer(run_id=0)

    def leaf():
        time.sleep(0.01)

    def outer():
        for _ in range(2):
            tracer.wrap("leaf", leaf)()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    (o_name, o_start, o_end, o_parent, _), *leaves = tracer.spans
    assert (o_name, o_parent) == ("outer", -1)
    for name, start, end, parent, run_id in leaves:
        assert (name, parent, run_id) == ("leaf", 0, 0)
        assert o_start <= start <= end <= o_end
    stats = tracer.layer_stats()
    calls, total, self_time = stats["outer"]
    assert calls == 1 and 0.0 < self_time < total
    assert self_time == pytest.approx(total - stats["leaf"][1])


def test_traced_pass_spans_nest_and_patches_are_undone(tmp_path):
    workload = TINY["matrix-elements"]
    if str(bench.SRC) not in sys.path:
        sys.path.insert(0, str(bench.SRC))
    from qcat import harness, metaplectic, torus

    tracer = spans.Tracer(run_id=7)
    with spans.installed(tracer):
        assert torus.cis_turns is metaplectic.cis_turns
        assert hasattr(torus.cis_turns, "__wrapped__")
        ops = bench.run_pass_inprocess(workload, 5, tmp_path / "pass", tracer)
    assert [op.exit_code for op in ops] == [0, 0]
    assert not hasattr(torus.cis_turns, "__wrapped__")
    assert not hasattr(harness.EXPERIMENTS["theorem"], "__wrapped__")
    for name, start, end, parent, run_id in tracer.spans:
        assert run_id == 7 and start <= end
        if parent >= 0:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    stats = tracer.layer_stats()
    for name, (calls, total, self_time) in stats.items():
        assert calls >= 1 and 0.0 <= self_time <= total + 1e-9, name
    for name in ("op.theorem", "harness.run_theorem", "torus.pair_symmetrized_detailed",
                 "lagrangian.off_band_tail", "metaplectic.cis_turns"):
        assert name in stats
    assert tracer.counters["torus.lattice_terms"] > 0


def test_corrupted_reference_row_is_a_failure(tmp_path):
    workload = TINY["matrix-elements"]
    reference, ops = tiny_reference(workload, tmp_path)
    lines = sum(len(text.splitlines()) for files in reference.values() for text in files.values())

    clean = bench.Tally()
    assert clean.check_pass(workload, ops, reference=reference) == lines
    assert (clean.attempted, clean.failed) == (2, 0)

    header, row, *rest = reference["theorem-N64"]["theorem.csv"].splitlines()
    cells = row.split(",")
    col = header.split(",").index("lhs_abs")
    drifted = dict(reference["theorem-N64"])
    cells[col] = repr(float(cells[col]) * (1 + 1e-12))  # within REL_TOL: passes, not bit-exact
    drifted["theorem.csv"] = "\n".join([header, ",".join(cells), *rest]) + "\n"
    tally = bench.Tally()
    assert tally.check_pass(workload, ops, reference={**reference, "theorem-N64": drifted}) == lines - 1
    assert tally.failed == 0

    cells[col] = repr(float(cells[col]) * 1.001)
    drifted["theorem.csv"] = "\n".join([header, ",".join(cells), *rest]) + "\n"
    tally = bench.Tally()
    tally.check_pass(workload, ops, reference={**reference, "theorem-N64": drifted})
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.problems[0][:2] == ("theorem.csv", 2)


def test_invariant_violation_is_a_failure():
    text = "N,unitarity_defect,gram_min_eig,wall_seconds\n8,2e-09,1.0,0.1\n16,1e-15,nan,0.1\n"
    problems = bench.check_invariants("unitarity.csv", text)
    assert [(no, msg.split()[0]) for _, no, msg in problems] == [(2, "unitarity_defect"), (3, "non-finite")]


def test_nonzero_exit_is_a_failure(tmp_path):
    # An odd N is a config error: exit code 2.
    odd = bench.Workload("odd", ("theorem",), {"N_values": [7]})
    # n = 1 at N = 64 is below theorem_rhs's validity threshold: predict.py raises.
    below = bench.Workload("below", ("prediction",),
                           {"N_values": [64], "n_mode": "absolute", "n_values": [1]})
    tally = bench.Tally()
    for workload in (odd, below):
        ops = bench.run_pass(workload, 1, tmp_path / workload.name)
        tally.check_pass(workload, ops)
    assert [p[2].split(":")[0] for p in tally.problems] == ["exit code 2", "exit code 1"]
    assert tally.attempted == tally.failed == 1 + (1 + 5)


def test_relative_pythonpath_does_not_leak_into_children(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "src")
    seconds, code, rss, tail = bench.run_process(
        [sys.executable, "-c", "import qcat, os; print(os.getcwd())"], tmp_path)
    assert code == 0, tail
    assert rss > 0


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
