"""Write the stored reference outputs of every workload (or of those named).

    python3 perfbench/make_reference.py [workload ...]

Runs one pass of each workload at ``bench.REFERENCE_SEED`` exactly as a
benchmark run does and stores its CSV outputs in ``reference/<workload>.json``,
together with the config and the source digest they came from.  The
reference is part of the benchmark: regenerate it only in a change that
edits the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import bench


def main(names: list[str]) -> int:
    os.environ.update(bench.blas_env())
    bench.require_source()
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    bench.WORK_ROOT.mkdir(exist_ok=True)
    env = bench.environment()
    for name in names or list(bench.WORKLOADS):
        workload = bench.WORKLOADS[name]
        work = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=bench.WORK_ROOT))
        try:
            ops = bench.run_pass(workload, bench.REFERENCE_SEED, work / "pass")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed = [op for op in ops if op.exit_code != 0]
        if failed:
            print(f"{name}: {failed[0].name} exited {failed[0].exit_code}: "
                  f"{failed[0].message}", file=sys.stderr)
            return 1
        data = {
            "seed": bench.REFERENCE_SEED,
            "config": workload.config_for(bench.REFERENCE_SEED),
            "source_sha256": env["source_sha256"],
            "git_commit": env["git_commit"],
            "outputs": {op.name: op.files for op in ops},
        }
        path = bench.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
