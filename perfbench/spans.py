"""In-process span tracing of qcat's layers, installed from outside the package.

Each traced function is replaced by a wrapper at every name a caller looks it
up under: the attribute of every loaded ``qcat`` module that holds the
original (``from .metaplectic import cis_turns`` copies the name into
``torus``, ``lagrangian`` and ``birkhoff``) and the ``harness.EXPERIMENTS``
table that ``run_experiment`` dispatches through.  Spans are kept in memory;
``write_spans`` dumps them once the run is over.

The harness runs cells on one thread (``--threads 1``), so a plain stack
gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> functions wrapped in it; span names are "<module>.<function>".
TRACED = {
    "classical": ("flow_coefficients",),
    "metaplectic": ("cis_turns", "gaussian_eval", "propagate_n"),
    "torus": ("periodized_samples", "pair_symmetrized_detailed", "build_propagator_matrix",
              "husimi"),
    "lagrangian": ("off_band_tail", "band_sum", "band_difference"),
    "birkhoff": ("damped_birkhoff_sum", "theorem_rhs", "fit_theorem_constant"),
    "harness": ("run_experiment", "run_unitarity", "run_egorov", "run_theorem", "run_bands",
                "run_eigenphases"),
}


class Tracer:
    """Spans [name, start, end, parent index, run id] of one traced pass."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        # The lattice pairing returns its LatticeTruncation; count its terms.
        counts_terms = name == "torus.pair_symmetrized_detailed"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counts_terms:
                self.counters["torus.lattice_terms"] += (2 * result[1].radius + 1) ** 2
            return result

        return wrapper

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds); self time is the span's
        duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, list] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return {name: tuple(v) for name, v in stats.items()}


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced function with ``tracer``'s wrapper; undo on exit."""
    from qcat import harness

    modules = [mod for name, mod in sys.modules.items()
               if mod is not None and (name == "qcat" or name.startswith("qcat."))]
    undo = []
    for mod_name, functions in TRACED.items():
        owner = sys.modules[f"qcat.{mod_name}"]
        for fn_name in functions:
            original = getattr(owner, fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod.__dict__, attr, original))
                        setattr(mod, attr, wrapper)
            for key, value in harness.EXPERIMENTS.items():
                if value is original:
                    undo.append((harness.EXPERIMENTS, key, original))
                    harness.EXPERIMENTS[key] = wrapper
    try:
        yield tracer
    finally:
        for table, key, original in reversed(undo):
            table[key] = original


def write_spans(path, tracers: list[Tracer]) -> None:
    """One JSON line per span: name, start, end, parent index, run id."""
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for name, start, end, parent, run_id in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
