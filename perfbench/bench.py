"""Workloads, hermetic process launching, output checks and metrics of the
qcat benchmark.  ``run.py`` is the command line; ``README.md`` says why each
workload exists.

A run of one workload:

1. makes a fresh directory under ``.perfbench_tmp/`` of the checkout, where
   each pass writes the qcat config of each of its operations;
2. runs one untimed pass at ``REFERENCE_SEED`` and compares its outputs with
   the stored reference (``reference/<workload>.json``);
3. runs timed passes at the run seed for ``seconds`` (a pass starts only if
   one as long as the last still ends in time), each operation its own
   process, and checks every pass: invariants, and
   identity with the first timed pass.  Before each pass it takes
   ``SETUP_PER_PASS`` samples of set-up time: a fresh interpreter that
   imports ``qcat.harness`` and loads the config;
4. times ``calibration_burst`` before every operation and every set-up
   sample, and reports ``setup_s`` and ``wall_s`` in calibrated seconds (see
   ``calibrated``).

An operation is one experiment at one N.  It runs as a user runs it:
``python -m qcat.cli <experiment> --threads 1`` with the absolute ``src``
path on ``PYTHONPATH``, its pass directory as cwd, and BLAS pinned to
``BLAS_THREADS`` thread.  Nothing is installed.  A traced run
(``trace=True``) replaces steps 3 and 4 with alternating untraced and traced
in-process passes (see ``spans.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import predict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"
PREDICT = BENCH_DIR / "predict.py"

# qcat's default config seed; the stored reference outputs were made with it.
REFERENCE_SEED = 20240901
# Float cells must match the reference within this tolerance (math.isclose);
# integer cells and text must match exactly.  The absolute floor covers
# quantities that are rounding noise by nature (unitarity defects, far tails).
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Invariants checked on every seed.
COLUMN_LIMITS = {"unitarity_defect": 1e-9, "max_modulus_defect": 1e-9}
# Genuine timings, excluded from every comparison.
EXCLUDED_COLUMNS = frozenset({"wall_seconds"})

BLAS_THREADS = 1  # at most nproc on any machine
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PER_PASS = 2
# The median calibration_burst on the machine the README's baselines come
# from; it only sets the scale of calibrated seconds.
CALIBRATION_REFERENCE_S = 0.144
OP_TIMEOUT_S = 150.0
SETUP_CODE = "import sys, qcat.harness; qcat.harness.load_config(sys.argv[1])"


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, set-up fails)."""


@dataclass(frozen=True)
class Workload:
    """A qcat config (minus its seed) and the operations one pass runs on it.

    Each experiment at each N is one process; ``prediction`` is
    ``predict.py``, every other name a ``qcat.cli`` experiment.
    """

    name: str
    experiments: tuple[str, ...]
    config: dict

    def config_for(self, seed: int, n_dim: int | None = None) -> dict:
        """The config at ``seed``; with ``n_dim``, for that N alone."""
        config = {**self.config, "seed": seed}
        if n_dim is not None:
            config["N_values"] = [n_dim]
        return config

    def operations(self) -> list[tuple[str, str, int]]:
        """(name, experiment, N) of each operation of a pass, in run order."""
        return [(f"{exp}-N{n_dim}", exp, n_dim)
                for exp in self.experiments for n_dim in self.config["N_values"]]

    def args(self, experiment: str, cfg: Path, out: Path) -> list[str]:
        """Arguments after the program: the CLI's or predict.py's."""
        if experiment == "prediction":
            return ["--config", str(cfg), "--out", str(out)]
        return [experiment, "--config", str(cfg), "--out", str(out), "--threads", "1"]

    def command(self, experiment: str, cfg: Path, out: Path) -> list[str]:
        program = [str(PREDICT)] if experiment == "prediction" else ["-m", "qcat.cli"]
        return [sys.executable, *program, *self.args(experiment, cfg, out)]

    def units(self, experiment: str) -> int:
        """Operations one process stands for: one CLI invocation, or the fit
        plus each theorem_rhs call of predict.py (one N per process)."""
        if experiment != "prediction":
            return 1
        return 1 + predict.PAIRS * len(self.config["n_values"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("husimi", ("egorov",), {"N_values": [64, 144], "grid_resolution": 24}),
        Workload("spectrum", ("unitarity", "eigenphases"), {"N_values": [128, 256]}),
        Workload("matrix-elements", ("theorem", "bands"),
                 {"N_values": [1024, 4096], "n_mode": "absolute", "n_values": [6, 7, 8]}),
        Workload("prediction", ("prediction",),
                 {"N_values": [256, 1024, 4096], "n_mode": "absolute", "n_values": [12, 13]}),
    )
}


@dataclass
class OpResult:
    """One operation: its wall time, peak RSS, exit code and CSV outputs."""

    name: str
    experiment: str
    seconds: float
    max_rss_kb: int
    exit_code: int
    files: dict[str, str]
    bytes_written: int
    message: str = ""


# ---------------------------------------------------------------- launching

def require_source() -> None:
    if not (SRC / "qcat" / "cli.py").is_file():
        raise BenchError(f"qcat source tree not found under {SRC}")


def blas_env() -> dict[str, str]:
    return {var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS}


def child_env() -> dict[str, str]:
    env = {**os.environ, **blas_env()}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], cwd: Path) -> tuple[float, int, int, str]:
    """Run ``argv`` to its end: (seconds, exit code, peak RSS in KiB, stderr tail).

    The child is reaped with ``os.wait4`` so its own peak RSS is read; a
    watchdog kills it after ``OP_TIMEOUT_S``.
    """
    err_path = cwd / f"stderr-{time.monotonic_ns()}.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:].strip()
    return seconds, proc.returncode, usage.ru_maxrss, tail


def read_outputs(out: Path) -> tuple[dict[str, str], int]:
    """CSV texts by file name, and the bytes of everything written."""
    if not out.is_dir():
        return {}, 0
    files = {p.name: p.read_text(encoding="ascii") for p in sorted(out.glob("*.csv"))}
    return files, sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _pass_operations(workload: Workload, seed: int, pass_dir: Path):
    """(name, experiment, config path, output dir) of each operation of a pass
    in the fresh directory ``pass_dir``."""
    pass_dir.mkdir(parents=True)
    for name, exp, n_dim in workload.operations():
        cfg = write_config(pass_dir / f"{name}.json", workload.config_for(seed, n_dim))
        yield name, exp, cfg, pass_dir / name


def run_pass(workload: Workload, seed: int, pass_dir: Path,
             calibration: list[float] | None = None) -> list[OpResult]:
    """One pass, each operation its own process; with ``calibration``, a
    calibration burst is timed into it before each operation."""
    results = []
    for name, exp, cfg, out in _pass_operations(workload, seed, pass_dir):
        if calibration is not None:
            calibration.append(calibration_burst())
        seconds, code, rss, tail = run_process(workload.command(exp, cfg, out), pass_dir)
        files, written = read_outputs(out)
        results.append(OpResult(name, exp, seconds, rss, code, files, written, tail))
    return results


def run_pass_inprocess(workload: Workload, seed: int, pass_dir: Path, tracer=None) -> list[OpResult]:
    """The same pass in this interpreter, optionally under ``tracer``."""
    import qcat.cli

    results = []
    for name, exp, cfg, out in _pass_operations(workload, seed, pass_dir):
        entry = predict.main if exp == "prediction" else qcat.cli.main
        message = ""
        start = time.perf_counter()
        try:
            with tracer.span(f"op.{exp}") if tracer else nullcontext():
                code = entry(workload.args(exp, cfg, out))
        except Exception as exc:  # an operation that raises counts as failed
            code, message = 1, repr(exc)
        seconds = time.perf_counter() - start
        files, written = read_outputs(out)
        results.append(OpResult(name, exp, seconds, 0, code, files, written, message))
    return results


def setup_time(cfg: Path, cwd: Path) -> float:
    """Seconds for a fresh interpreter to import qcat.harness and load ``cfg``."""
    seconds, code, _, tail = run_process([sys.executable, "-c", SETUP_CODE, str(cfg)], cwd)
    if code != 0:
        raise BenchError(f"set-up failed with exit code {code}: {tail}")
    return seconds


def calibration_burst() -> float:
    """Seconds for a fixed kernel made of the kinds of work qcat does: numpy
    scalar calls in a Python loop (as in the damping-window scan) and
    long-double array reduction feeding a complex exponential (as in
    ``cis_turns``).  It runs in this process and uses no qcat code, so no
    change to qcat moves it."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for k in range(1, 9000):
        acc += abs(complex(np.asarray(np.exp(-np.asarray(k / 9000.0) ** 2), dtype=complex)))
    turns = np.arange(8192, dtype=np.longdouble) * np.longdouble(1e6 / 3.0)
    for _ in range(72):
        frac = np.asarray(turns - np.floor(turns), dtype=np.float64)
        acc += float(np.exp(2j * np.pi * frac).real.sum())
    seconds = time.perf_counter() - start
    if not math.isfinite(acc):
        raise BenchError("calibration kernel went wrong")
    return seconds


# ------------------------------------------------------------------- checks

_INT = re.compile(r"-?\d+")


def _cells(line: str, skip: set[int]) -> list[str]:
    return [c for i, c in enumerate(line.split(",")) if i not in skip]


def _skipped(header: str) -> set[int]:
    return {i for i, name in enumerate(header.split(",")) if name in EXCLUDED_COLUMNS}


def _close(got: str, ref: str) -> bool:
    if got == ref:
        return True
    if _INT.fullmatch(ref):
        return False
    try:
        return math.isclose(float(got), float(ref), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    except ValueError:
        return False


def check_invariants(name: str, text: str) -> list[tuple]:
    """Every numeric cell finite; defect columns within COLUMN_LIMITS."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    problems = []
    for no, line in enumerate(lines[1:], start=2):
        for col, cell in enumerate(line.split(",")):
            try:
                value = float(cell)
            except ValueError:
                continue
            limit = COLUMN_LIMITS.get(header[col]) if col < len(header) else None
            if not math.isfinite(value):
                problems.append((name, no, f"non-finite cell {cell}"))
            elif limit is not None and abs(value) > limit:
                problems.append((name, no, f"{header[col]} = {cell} exceeds {limit}"))
    return problems


def compare_files(files: dict[str, str], expected: dict[str, str], exact: bool) -> tuple[list[tuple], int]:
    """Problems where ``files`` differ from ``expected`` (cell tolerance unless
    ``exact``), and the count of lines that are byte-identical once the
    excluded columns are dropped."""
    problems = []
    if set(files) != set(expected):
        problems.append(("", 0, f"output files {sorted(files)} != {sorted(expected)}"))
    identical = 0
    for name in sorted(set(files) & set(expected)):
        got, ref = files[name].splitlines(), expected[name].splitlines()
        if len(got) != len(ref):
            problems.append((name, 0, f"{len(got)} lines, expected {len(ref)}"))
        skip = _skipped(ref[0]) if ref else set()
        for no, (g, r) in enumerate(zip(got, ref), start=1):
            gc, rc = _cells(g, skip), _cells(r, skip)
            if gc == rc:
                identical += 1
            elif exact or len(gc) != len(rc) or not all(map(_close, gc, rc)):
                problems.append((name, no, "differs from " + ("first pass" if exact else "reference")))
    return problems, identical


@dataclass
class Tally:
    """Operations attempted and failed, with the problems found."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, workload: Workload, op: OpResult, problems: list[tuple]) -> None:
        units = workload.units(op.experiment)
        if op.exit_code != 0:
            problems = [(op.experiment, 0, f"exit code {op.exit_code}: {op.message}")]
            bad = units
        else:
            bad = min(units, len({(f, no) for f, no, _ in problems}))
        self.attempted += units
        self.failed += bad
        self.problems.extend(problems)

    def check_pass(self, workload: Workload, ops: list[OpResult],
                   reference: dict | None = None, first: list[OpResult] | None = None) -> int:
        """Check each operation; against ``reference`` (tolerance) or against
        the same operation of pass ``first`` (exact).  Returns the lines that
        match the reference byte for byte."""
        identical = 0
        for i, op in enumerate(ops):
            problems = [p for name, text in op.files.items() for p in check_invariants(name, text)]
            if reference is not None:
                found, same = compare_files(op.files, reference.get(op.name, {}), exact=False)
                problems += found
                identical += same
            elif first is not None:
                problems += compare_files(op.files, first[i].files, exact=True)[0]
            self.add(workload, op, problems)
        return identical


def load_reference(workload: Workload) -> dict:
    data = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text(encoding="utf-8"))
    if data["seed"] != REFERENCE_SEED or data["config"] != workload.config_for(REFERENCE_SEED):
        raise BenchError(f"reference for {workload.name} was made for another config")
    return data["outputs"]


# -------------------------------------------------------------------- runs

def write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
    return path


def summary(values: list[float], unit: str) -> dict:
    """Median with quartiles and sample count."""
    # quantiles() needs two points; a single sample is its own quartiles.
    q1, q2, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4,
                                      method="inclusive")
    return {"value": q2, "unit": unit, "samples": len(values),
            "note": f"p25 {q1:.6g}  p75 {q3:.6g}"}


def calibrated(samples: list[float], speed: float) -> dict:
    """The median of ``samples`` (seconds) in calibrated seconds.

    On a shared host the same code runs up to twice as slow for stretches of
    seconds to minutes, so a median over one run moves with the neighbours'
    load.  ``speed`` is ``CALIBRATION_REFERENCE_S`` over the median
    calibration burst of the same run, timed between the samples, so a run
    made in a slow stretch is scaled back by as much as the bursts slowed."""
    raw = statistics.median(samples)
    return {"value": raw * speed, "unit": "s", "samples": len(samples),
            "note": f"raw median {raw:.6g} s x speed {speed:.4f}"}


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        reference: dict | None = None) -> dict:
    """One benchmark run; returns metrics (with sample counts) and the tally.
    ``reference`` defaults to the stored one of the workload."""
    require_source()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        cfg = write_config(work / "config.json", workload.config_for(seed))
        tally = Tally()
        setup_time(cfg, work)  # warm-up: fills the bytecode cache
        calibration_burst()  # warm-up: loads numpy here
        reference = reference or load_reference(workload)
        identical = tally.check_pass(workload, run_pass(workload, REFERENCE_SEED, work / "reference"),
                                     reference=reference)
        if trace:
            return _traced(workload, seed, seconds, work, tally, identical)
        setup, bursts, walls, peaks, first = [], [], [], [], None
        start = last = time.perf_counter()
        # Start a pass only if one as long as the last still ends in time.
        while not walls or 2 * time.perf_counter() - last - start <= seconds:
            last = time.perf_counter()
            for _ in range(SETUP_PER_PASS):
                bursts.append(calibration_burst())
                setup.append(setup_time(cfg, work))
            ops = run_pass(workload, seed, work / f"pass{len(walls)}", bursts)
            tally.check_pass(workload, ops, first=first)
            first = first or ops
            walls.append(sum(op.seconds for op in ops))
            peaks.append(max(op.max_rss_kb for op in ops) / 1024.0)
        speed = CALIBRATION_REFERENCE_S / statistics.median(bursts)
        metrics = {
            "setup_s": calibrated(setup, speed),
            "wall_s": calibrated(walls, speed),
            "peak_rss_mb": summary(peaks, "MB"),
        }
        calibration = {"reference_s": CALIBRATION_REFERENCE_S, "speed": speed,
                       "bursts": bursts, "setup_s": setup, "wall_s": walls}
        return {"metrics": metrics, "tally": tally, "calibration": calibration}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# Per-layer metrics: span name and the statistics reported for it, each
# mapped to its index in a Tracer.layer_stats() entry and its unit.
_STAT = {"calls": (0, "count"), "total_s": (1, "s"), "self_s": (2, "s")}
LAYER_SPANS = (
    ("metaplectic.cis_turns", ("calls", "self_s")),
    ("metaplectic.gaussian_eval", ("self_s",)),
    ("metaplectic.propagate_n", ("calls", "self_s")),
    ("classical.flow_coefficients", ("calls",)),
    ("torus.husimi", ("self_s", "total_s")),
    ("torus.build_propagator_matrix", ("calls", "self_s")),
    ("torus.periodized_samples", ("calls", "self_s")),
    ("torus.pair_symmetrized_detailed", ("calls", "self_s")),
    ("lagrangian.off_band_tail", ("self_s",)),
    ("lagrangian.band_sum", ("self_s",)),
    ("lagrangian.band_difference", ("self_s",)),
    ("birkhoff.damped_birkhoff_sum", ("calls", "self_s", "total_s")),
    ("birkhoff.theorem_rhs", ("self_s",)),
    ("birkhoff.fit_theorem_constant", ("self_s",)),
    ("harness.run_unitarity", ("self_s",)),
    ("harness.run_egorov", ("self_s",)),
    ("harness.run_theorem", ("self_s",)),
    ("harness.run_bands", ("self_s",)),
    ("harness.run_eigenphases", ("self_s",)),
    ("harness.run_experiment", ("self_s",)),
)


def layer_metrics(tracer, ops: list[OpResult]) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced pass, by metric name."""
    stats = tracer.layer_stats()
    values = {}
    for span, wanted in LAYER_SPANS:
        for stat in wanted:
            index, unit = _STAT[stat]
            values[f"{span}.{stat}"] = (stats.get(span, (0, 0.0, 0.0))[index], unit)
    values["torus.lattice_terms"] = (tracer.counters["torus.lattice_terms"], "count")
    values["harness.bytes_written"] = (sum(op.bytes_written for op in ops), "bytes")
    values["trace.wall_s"] = (sum(op.seconds for op in ops), "s")
    return values


def _traced(workload: Workload, seed: int, seconds: float, work: Path,
            tally: Tally, identical: int) -> dict:
    """After one untimed warm-up pass, alternate untraced and traced
    in-process passes until ``seconds`` pass; per-layer values are medians
    over the traced passes."""
    import spans

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    first = run_pass_inprocess(workload, seed, work / "warmup")
    tally.check_pass(workload, first)
    untraced, tracers, samples = [], [], {}
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        ops = run_pass_inprocess(workload, seed, work / f"plain{len(untraced)}")
        tally.check_pass(workload, ops, first=first)
        untraced.append(sum(op.seconds for op in ops))
        tracer = spans.Tracer(run_id=len(tracers))
        with spans.installed(tracer):
            ops = run_pass_inprocess(workload, seed, work / f"traced{len(tracers)}", tracer)
        tally.check_pass(workload, ops, first=first)
        tracers.append(tracer)
        for name, (value, unit) in layer_metrics(tracer, ops).items():
            samples.setdefault(name, ([], unit))[0].append(value)
    metrics = {name: summary(values, unit) for name, (values, unit) in samples.items()}
    metrics["harness.rows_bitexact"] = summary([identical], "count")
    overhead = [t - u for t, u in zip(samples["trace.wall_s"][0], untraced)]
    metrics["trace.overhead_s"] = summary(overhead, "s")
    OUT_ROOT.mkdir(exist_ok=True)
    spans.write_spans(OUT_ROOT / f"spans-{workload.name}-seed{seed}.jsonl", tracers)
    return {"metrics": metrics, "tally": tally}


# -------------------------------------------------------------- environment

def environment() -> dict:
    """What the numbers depend on: code, interpreter, numpy, BLAS, machine."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "qcat_threads": 1,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }
