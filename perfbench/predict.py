"""The prediction workload's program: fit the theorem constant once, then
evaluate the predicted matrix element ``theorem_rhs`` for every seeded
source/target pair, N and n of a qcat config.

    PYTHONPATH=src python3 perfbench/predict.py --config cfg.json --out DIR

Writes ``DIR/fit.csv`` (the fitted constant) and ``DIR/prediction.csv`` (one
row per ``theorem_rhs`` call) with qcat's own CSV writer.  No CLI experiment
reaches n >= 12 yet, so this is the only route on which the benchmark times
``birkhoff.damped_birkhoff_sum``.  A call that raises ends the process with a
traceback and a non-zero exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

PAIRS = 5  # the seeded pair count of qcat's theorem experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # Imported here so the benchmark can read PAIRS without qcat on the path,
    # and called through their modules so a traced run sees its wrappers.
    from qcat import birkhoff, harness, tables

    cfg = harness.load_config(args.config)
    m = cfg.cat_matrix()
    d_fit = birkhoff.fit_theorem_constant(m, seed=cfg.seed)
    pairs = cfg.resolved_pairs(PAIRS)
    rows = []
    for n_dim in cfg.N_values:
        for n_time in cfg.resolve_times(n_dim):
            for idx, (src, dst) in enumerate(pairs):
                rhs = birkhoff.theorem_rhs(m, n_time, 1.0 / n_dim, src, dst, d_fit)
                rows.append((n_dim, n_time, idx, src.q, src.p, dst.q, dst.p, rhs.real, rhs.imag))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tables.ResultTable(schema="fit", columns=("fitted_re", "fitted_im"),
                       rows=[(d_fit.real, d_fit.imag)]).write_csv(out / "fit.csv")
    tables.ResultTable(
        schema="prediction",
        columns=("N", "n", "pair_idx", "src_q", "src_p", "dst_q", "dst_p", "rhs_re", "rhs_im"),
        rows=rows,
    ).write_csv(out / "prediction.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
