"""qcat benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; nothing needs installing.  With
``--trace 0`` a run reports the end-to-end metrics ``setup_s``, ``wall_s``
(both in calibrated seconds, see ``bench.calibrated``) and ``peak_rss_mb``;
with ``--trace 1`` it runs the workload in-process under span tracing and
reports the per-layer metrics instead.  Each metric line gives its value,
how it was read (quartiles, or the raw median and speed behind a calibrated
one) and its sample count; the environment follows as one JSON line, and the last
line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``fail_frac`` is failed / attempted.  ``--workload all`` runs every workload
in turn and prefixes each metric with the workload name.  The run's full
record is written to ``.perfbench_out/``.  Exit code 2 means the benchmark
could not run (no source tree, set-up failed) and nothing was printed on
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bench


def report(name: str, result: dict) -> None:
    tally = result["tally"]
    for metric, s in result["metrics"].items():
        print(f"{name:16s} {metric:40s} {s['value']:14.6g} {s['unit']:6s} "
              f"{s['note']}  n={s['samples']}")
    frac = tally.failed / tally.attempted
    print(f"{name:16s} {'fail_frac':40s} {frac:14.6g} {'ratio':6s} "
          f"{tally.failed} failed of {tally.attempted} operations")
    for problem in tally.problems[:10]:
        print(f"{name:16s} problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qcat benchmark")
    parser.add_argument("--workload", required=True, choices=[*bench.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(bench.blas_env())  # before numpy loads in this process
    seed = args.seed % 2 ** 64  # qcat accepts 64-bit nonnegative seeds
    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        results = {name: bench.run(bench.WORKLOADS[name], seed, args.seconds, bool(args.trace))
                   for name in names}
    except bench.BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    env = bench.environment()
    attempted = sum(r["tally"].attempted for r in results.values())
    failed = sum(r["tally"].failed for r in results.values())
    metrics = {}
    for name, result in results.items():
        report(name, result)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, s in result["metrics"].items():
            metrics[prefix + metric] = {"value": s["value"], "unit": s["unit"]}
        if args.workload == "all":
            tally = result["tally"]
            metrics[f"{name}.fail_frac"] = {"value": tally.failed / tally.attempted,
                                            "unit": "ratio"}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    bench.OUT_ROOT.mkdir(exist_ok=True)
    record = bench.OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "args": vars(args), "environment": env, "result": line,
        "samples": {n: r["metrics"] for n, r in results.items()},
        "calibration": {n: r.get("calibration") for n, r in results.items()},
        "problems": {n: r["tally"].problems for n, r in results.items()},
    }, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
