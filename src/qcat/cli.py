"""Command line entry point.

    qcat <experiment> --config cfg.json --out results/ [--verbose]

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import ConfigError, QcatError
from .harness import EXPERIMENTS, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcat",
        description="Quantized torus automorphism experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="path to a strict-JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, choices=(1,), default=1,
                        help="accepted only as 1, for the benchmark's command line; qcat runs on "
                             "one thread, and the flag goes with the next benchmark change "
                             "(ROADMAP.md item 11)")
    parser.add_argument("--verbose", action="store_true", help="print progress to stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.verbose:
            print(f"[qcat] running {args.experiment} with N in {list(cfg.N_values)}",
                  file=sys.stderr)
        csv_path = run_experiment(args.experiment, cfg, args.out)
        if args.verbose:
            print(f"[qcat] wrote {csv_path}", file=sys.stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QcatError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


def run() -> None:
    """Entry point of ``qcat`` and ``python -m qcat.cli``: exit with main()'s code.

    ``gc.freeze()`` first, so the collections of interpreter teardown skip
    numpy's heap; atexit handlers, stream flushes and thread joins still
    run.  :func:`main` leaves the collector alone for in-process callers.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
